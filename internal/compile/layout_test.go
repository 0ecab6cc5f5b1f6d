package compile_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/dbio"
	"repro/internal/dynamicq"
	"repro/internal/enumerate"
	"repro/internal/logic"
	"repro/internal/parser"
)

// The queries of the benchmark's four workloads (perf/oracle.go).
const (
	layoutTriangle = "sum x,y,z . [E(x,y)&E(y,z)&E(z,x)] * w(x,y)*w(y,z)*w(z,x)"
	layoutPath     = "E(x,y) & E(y,z) & S(x)"
	layoutExists   = "sum x . [exists y . E(x,y) & S(y)] * u(x)"
	layoutPoint    = "sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)"
	layoutEdges    = "sum x,y . [E(x,y)] * w(x,y)"
)

// layoutCase is one compiled query of a workload: the query over the
// generated input of the given kind and size.
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
}

// compileLayoutCase compiles the query the way agg.Prepare does: a formula
// through the enumerator, an expression (closed or a point query) through
// dynamicq.
func compileLayoutCase(t *testing.T, c layoutCase) *compile.Result {
	t.Helper()
	db, err := dbio.LoadSource(dbio.Source{Kind: c.kind, N: c.n, Seed: 1})
	if err != nil {
		t.Fatal(err)
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

// TestProgramLayoutIsUnchanged holds the Programs of the benchmark's queries
// to digests recorded in testdata: a change to how circuits are built or
// frozen that alters anything an engine reads — a gate id, an operand order,
// a wire, a level, a permanent's cell — fails here, whatever it evaluates to.
func TestProgramLayoutIsUnchanged(t *testing.T) {
	const golden = "testdata/program_layout.txt"
	want := map[string]string{}
	if data, err := os.ReadFile(golden); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if name, digest, ok := strings.Cut(line, " "); ok {
				want[name] = digest
			}
		}
	} else {
		t.Errorf("read %s: %v", golden, err)
	}
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
