package compile_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/kc"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/structure"
)

// The queries of the benchmark's four workloads (perf/oracle.go).
const (
	layoutTriangle = "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"
	layoutPath     = "E(x,y) & E(y,z) & S(x)"
	layoutExists   = "sum x . [exists y . E(x,y) & S(y)] * u(x)"
	layoutPoint    = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	layoutEdges    = "sum x,y . [E(x,y)] * w(x,y)"
)

// Queries whose links are of the kinds the benchmark's queries do not make:
// an equality link that carries a binary literal, a pair joined by two
// binary literals (one run plus others), and a pair joined only by a weight
// term (a Gaifman link without literals).
const (
	layoutEqualLink  = "sum x,y,z . [x=y & E(x,y) & E(y,z)] * w(y,z)"
	layoutTwoLits    = "sum x,y,z . [E(x,y) & E(y,x) & E(y,z)] * w(x,y)"
	layoutWeightLink = "sum x,y,z . [E(x,y)] * w(y,z) * u(z)"
)

// layoutCase is one compiled query: the query over the generated input of
// the given kind and size.  A kind ending in "+loops" adds the loop E(v,v)
// on every 4th vertex, as TestLoopsAgreeWithLogic does, so that an equality
// link meets a binary literal that holds; one ending in "+mutual" adds the
// reverse of every 3rd tuple of E, so that E(x,y) & E(y,x) holds on pairs of
// distinct elements beside pairs where only one of the two does.
type layoutCase struct {
	kind, query string
	n           int
}

func (c layoutCase) name() string {
	return fmt.Sprintf("%s/%d/%s", c.kind, c.n, strings.ReplaceAll(c.query, " ", ""))
}

var layoutCases = []layoutCase{
	{"bounded-degree", layoutTriangle, 600},
	{"bounded-degree", layoutPath, 600},
	{"bounded-degree", layoutExists, 600},
	{"bounded-degree", layoutTriangle, 1200},
	{"bounded-degree", layoutPath, 1200},
	{"pref-attach", layoutPoint, 1500},
	{"pref-attach", layoutEdges, 1500},
	{"bounded-degree+loops", layoutEqualLink, 600},
	{"bounded-degree+loops", layoutTwoLits, 600},
	{"bounded-degree+mutual", layoutTwoLits, 600},
	{"bounded-degree", layoutWeightLink, 600},
}

// compileLayoutCase compiles the query the way agg.Prepare does: a formula
// through the enumerator, an expression (closed or a point query) through
// dynamicq.
func compileLayoutCase(t *testing.T, c layoutCase) *compile.Result {
	t.Helper()
	kind, edit, _ := strings.Cut(c.kind, "+")
	db, err := dbio.LoadSource(dbio.Source{Kind: kind, N: c.n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if edit != "" {
		b := db.A.Edit()
		switch edit {
		case "loops":
			for v := 0; v < c.n; v += 4 {
				b.MustAddTuple("E", v, v)
			}
		case "mutual":
			for i, tu := range db.A.Tuples("E") {
				if i%3 == 0 {
					b.MustAddTuple("E", tu[1], tu[0])
				}
			}
		default:
			t.Fatalf("%s: unknown edit %q", c.name(), edit)
		}
		db.A = b.Build()
	}
	if c.query == layoutPath {
		phi := parser.MustParseFormula(c.query)
		ans, err := enumerate.EnumerateAnswers(db.A, phi, logic.FreeVars(phi), compile.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		return ans.Result()
	}
	sh, err := dynamicq.CompileShared(db.A, parser.MustParseExpr(c.query), compile.Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.name(), err)
	}
	return sh.Result()
}

// layoutDigest hashes everything an engine can read of a Program: the gate
// count and output, each gate's kind, operands, wires and rank, the level
// schedule, the input keys and their index, the constants, every
// permanent's shape, cells and column runs, and the footprint.
func layoutDigest(p *circuit.Program) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	fmt.Fprintln(w, p.NumGates(), p.OutputGate(), p.Depth(), p.NumInputs(), p.Footprint())
	for id := 0; id < p.NumGates(); id++ {
		fmt.Fprintln(w, id, p.GateKind(id), p.ChildIDs(id), p.Wires(id), p.Rank(id))
		switch p.GateKind(id) {
		case circuit.KindInput:
			fmt.Fprintln(w, p.InputKey(id), p.InputNumber(id), p.InputGate(p.InputKey(id)))
		case circuit.KindConst:
			v, small := p.ConstInt64(id)
			fmt.Fprintln(w, v, small, p.ConstBig(id), p.ConstIsZero(id))
		case circuit.KindPerm:
			rows, cols := p.PermShape(id)
			fmt.Fprintln(w, rows, cols)
			for slot := range p.ChildIDs(id) {
				row, col := p.PermCell(id, slot)
				fmt.Fprintln(w, row, col)
			}
			for col := 0; col < cols; col++ {
				rows, gates := p.PermColumn(id, col)
				fmt.Fprintln(w, rows, gates)
			}
		}
	}
	for d := 0; d <= p.Depth(); d++ {
		fmt.Fprintln(w, d, p.LevelGates(d))
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden reads a file of lines "name value" into a map from name to
// value.
func readGolden(t *testing.T, golden string) map[string]string {
	t.Helper()
	want := map[string]string{}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Errorf("read %s: %v", golden, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok {
			want[name] = value
		}
	}
	return want
}

// TestProgramLayoutIsUnchanged holds the Programs of the benchmark's queries
// to digests recorded in testdata: a change to how circuits are built or
// frozen that alters anything an engine reads — a gate id, an operand order,
// a wire, a level, a permanent's cell — fails here, whatever it evaluates to.
func TestProgramLayoutIsUnchanged(t *testing.T) {
	const golden = "testdata/program_layout.txt"
	want := readGolden(t, golden)
	var got strings.Builder
	for _, c := range layoutCases {
		res := compileLayoutCase(t, c)
		digest := layoutDigest(res.Program)
		fmt.Fprintf(&got, "%s %s\n", c.name(), digest)
		if want[c.name()] != digest {
			t.Errorf("%s: %d gates digest to %s, want %s", c.name(), res.Program.NumGates(), digest, want[c.name()])
		}
	}
	if t.Failed() {
		t.Logf("digests of this build (the lines of %s):\n%s", golden, got.String())
	}
}

// TestCompileStatsAreUnchanged holds the compile work of the same queries to
// counts recorded in testdata: the colours, the boxes compiled and pruned,
// the forests built and the shapes compiled.  The builder interns its gates,
// so a change that visits more or larger boxes can leave every Program equal;
// these counts see it.
func TestCompileStatsAreUnchanged(t *testing.T) {
	const golden = "testdata/compile_stats.txt"
	want := readGolden(t, golden)
	var got strings.Builder
	for _, c := range layoutCases {
		st := compileLayoutCase(t, c).Stats
		counts := fmt.Sprintf("colors=%d boxes=%d pruned=%d forests=%d shapes=%d", st.Colors, st.ColorAssignments, st.PrunedAssignments, st.Forests, st.Shapes)
		fmt.Fprintf(&got, "%s %s\n", c.name(), counts)
		if want[c.name()] != counts {
			t.Errorf("%s: %s, want %s", c.name(), counts, want[c.name()])
		}
	}
	if t.Failed() {
		t.Logf("counts of this build (the lines of %s):\n%s", golden, got.String())
	}
}

// liveHeap returns the bytes of live heap after two collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestCompiledCircuitIsHeldOnce measures the heap that a compile.Result's
// Circuit and Program retain together, on the benchmark's path formula and
// point query, and wants it within 1.5× the Program's footprint: the builder
// appends into the arenas the Program reads, so a compiled circuit is not
// kept a second time in a builder layout.
func TestCompiledCircuitIsHeldOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	for _, c := range []layoutCase{
		{"bounded-degree", layoutPath, 1200},
		{"pref-attach", layoutPoint, 1500},
	} {
		res := compileLayoutCase(t, c)
		footprint := res.Program.Footprint()
		with := liveHeap()
		res.Circuit, res.Program = nil, nil
		held := with - liveHeap()
		runtime.KeepAlive(res)
		t.Logf("%s: Circuit and Program hold %d B, footprint %d B (%.2f×)", c.name(), held, footprint, float64(held)/float64(footprint))
		if 2*held > 3*footprint {
			t.Errorf("%s: Circuit and Program hold %d B, want ≤ 1.5 × the footprint %d B", c.name(), held, footprint)
		}
	}
}

// TestCompiledProgramsAreDecomposableAndDeterministic runs the structural
// checks of internal/kc over the benchmark's Programs, each query at the
// smallest size layoutCases compiles it at (the point query at n = 500, which
// keeps the check under a few seconds): no product multiplies two values
// that read one input, and no gate produces a monomial twice when every input
// is its own generator — which holds only while v⁺ and v⁻ of one tuple are
// two inputs and each input is its own generator.
func TestCompiledProgramsAreDecomposableAndDeterministic(t *testing.T) {
	type named struct {
		name string
		p    *circuit.Program
	}
	var programs []named
	for _, c := range []layoutCase{
		{"bounded-degree", layoutTriangle, 600},
		{"bounded-degree", layoutPath, 600},
		{"bounded-degree", layoutExists, 600},
		{"pref-attach", layoutPoint, 500},
		{"pref-attach", layoutEdges, 1500},
	} {
		programs = append(programs, named{c.name(), compileLayoutCase(t, c).Program})
	}
	programs = append(programs, named{"membership", membershipProgram(t)})
	for _, np := range programs {
		name, p := np.name, np.p
		a := kc.Analyze(p)
		for _, v := range a.CheckDecomposable() {
			t.Errorf("%s: %v", name, v)
		}
		for _, v := range a.CheckDeterministic() {
			// The triangle sum visits each triangle once per rotation of
			// (x, y, z), so its output holds every monomial three times by the
			// query's own multiplicity; every gate below it must not.
			if strings.Contains(name, "E(z,x)") && v.Gate == p.OutputGate() && strings.HasSuffix(v.Detail, "produced 3 times") {
				continue
			}
			t.Errorf("%s: %v", name, v)
		}
	}
}

// membershipProgram compiles a path formula with S dynamic: S(x) and ¬S(z)
// read Lemma 40's v⁺ and v⁻ of one tuple wherever x = z, so one product
// multiplies both.
func membershipProgram(t *testing.T) *circuit.Program {
	t.Helper()
	db, err := dbio.LoadSource(dbio.Source{Kind: "bounded-degree", N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	phi := parser.MustParseFormula("E(x,y) & E(y,z) & S(x) & !S(z)")
	ans, err := enumerate.EnumerateAnswers(db.A, phi, logic.FreeVars(phi), compile.Options{DynamicRelations: []string{"S"}})
	if err != nil {
		t.Fatal(err)
	}
	return ans.Result().Program
}

// TestInputKeyRoundTrip holds the boundary pair on a compiled Program: the
// label InputKey formats for an input decodes back to its gate through
// InputGate, in every role; a label the Program does not hold addresses no
// gate; and resolving a label allocates nothing.
func TestInputKeyRoundTrip(t *testing.T) {
	p := membershipProgram(t)
	roles := map[structure.Role]int{}
	for id := 0; id < p.NumGates(); id++ {
		if p.GateKind(id) != circuit.KindInput {
			continue
		}
		in, k := p.Input(id), p.InputKey(id)
		roles[in.Role]++
		if k.Weight != in.Symbol || k.Role != in.Role || !structure.ParseTupleKey(k.Tuple).Equal(in.Tuple) {
			t.Fatalf("gate %d: input %+v is labelled %+v", id, in, k)
		}
		if got := p.InputGate(k); got != id || p.FindInput(in.Symbol, in.Role, in.Tuple) != id {
			t.Fatalf("gate %d: InputGate(%+v) = %d, FindInput = %d", id, k, got, p.FindInput(in.Symbol, in.Role, in.Tuple))
		}
	}
	if roles[structure.Member] == 0 || roles[structure.NonMember] == 0 || roles[structure.Ordinary] == 0 {
		t.Fatalf("inputs by role %v, want all three", roles)
	}
	for _, k := range []structure.WeightKey{
		structure.InputLabel("S", structure.Member, structure.Tuple{1000}),
		structure.InputLabel("S", structure.Ordinary, structure.Tuple{0}),
		structure.InputLabel("E", structure.Member, structure.Tuple{0}),
		{Weight: "S", Tuple: "0,", Role: structure.Member},
	} {
		if got := p.InputGate(k); got != -1 {
			t.Errorf("InputGate(%+v) = %d, want -1", k, got)
		}
	}
	k := structure.InputLabel("S", structure.NonMember, structure.Tuple{7})
	if p.InputGate(k) < 0 {
		t.Fatalf("the Program does not read %+v", k)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.InputGate(k) }); allocs != 0 && !raceEnabled {
		t.Errorf("InputGate allocates %.0f objects per call, want 0", allocs)
	}
}

// TestEnumerationOrderIsUnchanged holds the order in which the enumerator
// produces answers, not only their set, to FNV digests recorded from the
// builder before it interned its gates: a copy of a gate keeps the operand
// order its first occurrence was built with, so a cursor walks the same
// derivations in the same order.
func TestEnumerationOrderIsUnchanged(t *testing.T) {
	const n = 600
	want := map[string]string{
		"bounded-degree/E(x,y)&E(y,z)&S(x)":   "5d5551f7b2a5dad3",
		"bounded-degree/E(x,y)&E(y,z)&E(z,x)": "9032f7d325e15e3a",
		"bounded-degree/E(x,y)&!E(y,x)&S(y)":  "eae443625b432a01",
		"pref-attach/E(x,y)&E(y,z)&S(x)":      "66d26fec5f5542a8",
		"pref-attach/E(x,y)&E(y,z)&E(z,x)":    "cbf29ce484222325",
		"pref-attach/E(x,y)&!E(y,x)&S(y)":     "e258543d964a3593",
		"grid/E(x,y)&E(y,z)&S(x)":             "e131e700142c5a3f",
		"grid/E(x,y)&E(y,z)&E(z,x)":           "ced88e0eeb623a9f",
		"grid/E(x,y)&!E(y,x)&S(y)":            "f9b5944dcb17b6cf",
	}
	for _, kind := range []string{"bounded-degree", "pref-attach", "grid"} {
		db, err := dbio.LoadSource(dbio.Source{Kind: kind, N: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"E(x,y)&E(y,z)&S(x)", "E(x,y)&E(y,z)&E(z,x)", "E(x,y)&!E(y,x)&S(y)"} {
			phi := parser.MustParseFormula(q)
			ans, err := enumerate.EnumerateAnswers(db.A, phi, logic.FreeVars(phi), compile.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, q, err)
			}
			h := fnv.New64a()
			answers := 0
			for cur := ans.Cursor(); ; answers++ {
				tu, ok := cur.Next()
				if !ok {
					break
				}
				fmt.Fprintln(h, tu)
			}
			name, got := kind+"/"+q, fmt.Sprintf("%016x", h.Sum64())
			t.Logf("%s: %d answers, %d gates, digest %s", name, answers, ans.Result().Program.NumGates(), got)
			if got != want[name] {
				t.Errorf("%s: %d answers digest to %s, want %s", name, answers, got, want[name])
			}
		}
	}
}

// TestNoTwoEqualGates holds the builder's unique table to its promise on the
// benchmark's Programs and the membership Program: no two sums or products
// have the same multiset of operands, and no two permanents the same shape
// and cells.  It logs each Program's gates and wires beside those of the
// builder that did not intern its gates (the numbers it compiled before).
func TestNoTwoEqualGates(t *testing.T) {
	before := map[string][2]int{ // gates, wires of the builder that did not intern
		"bounded-degree/600/sumx,y,z.[E(x,y)&E(y,z)&E(z,x)]*w(x,y)*w(y,z)*w(z,x)":  {837, 1395},
		"bounded-degree/600/E(x,y)&E(y,z)&S(x)":                                    {4014, 7217},
		"bounded-degree/600/sumx.[existsy.E(x,y)&S(y)]*u(x)":                       {407, 404},
		"bounded-degree/1200/sumx,y,z.[E(x,y)&E(y,z)&E(z,x)]*w(x,y)*w(y,z)*w(z,x)": {1554, 2583},
		"bounded-degree/1200/E(x,y)&E(y,z)&S(x)":                                   {7956, 14284},
		"pref-attach/1500/sumy,z.[E(x,y)&E(y,z)&!(x=z)]*u(y)*u(z)":                 {12728, 25120},
		"pref-attach/1500/sumx,y.[E(x,y)]*w(x,y)":                                  {3694, 3691},
		"membership": {5496, 10442},
	}
	check := func(name string, p *circuit.Program) {
		seen := map[string]int{}
		for id := 0; id < p.NumGates(); id++ {
			var key []int
			switch p.GateKind(id) {
			case circuit.KindAdd, circuit.KindMul:
				for _, g := range p.ChildIDs(id) {
					key = append(key, int(g))
				}
				slices.Sort(key)
			case circuit.KindPerm:
				var cells [][3]int
				p.ForEachPermEntry(id, func(row, col, gate int) { cells = append(cells, [3]int{col, row, gate}) })
				slices.SortFunc(cells, func(a, b [3]int) int { return slices.Compare(a[:], b[:]) })
				rows, cols := p.PermShape(id)
				key = append(key, rows, cols)
				for _, c := range cells {
					key = append(key, c[:]...)
				}
			default:
				continue
			}
			k := fmt.Sprint(p.GateKind(id), key)
			if first, ok := seen[k]; ok {
				t.Errorf("%s: gate %d is a copy of gate %d (%s)", name, id, first, k)
			}
			seen[k] = id
		}
		st, was := p.Stats(), before[name]
		t.Logf("%s: gates %d → %d, wires %d → %d", name, was[0], st.Gates, was[1], st.Edges)
	}
	for _, c := range layoutCases {
		check(c.name(), compileLayoutCase(t, c).Program)
	}
	check("membership", membershipProgram(t))
}
