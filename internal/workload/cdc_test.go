package workload_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/agg"
	"repro/internal/structure"
	"repro/internal/workload"
)

// cdcMirror replays a change stream against an explicit state machine so
// tests can check every invariant the generator promises.
type cdcMirror struct {
	d       *workload.Database
	edges   []structure.Tuple
	edgeIdx map[[2]int]int
	present []bool
	inS     []bool
	wVal    []int64
	uVal    []int64
}

func newCDCMirror(d *workload.Database) *cdcMirror {
	m := &cdcMirror{
		d:       d,
		edges:   d.A.Tuples("E"),
		edgeIdx: map[[2]int]int{},
		inS:     make([]bool, d.A.N),
		uVal:    make([]int64, d.A.N),
	}
	m.present = make([]bool, len(m.edges))
	m.wVal = make([]int64, len(m.edges))
	for i, e := range m.edges {
		m.edgeIdx[[2]int(e)] = i
		m.present[i] = true
		m.wVal[i] = d.EdgeWeight[[2]int(e)]
	}
	for v := 0; v < d.A.N; v++ {
		m.inS[v] = d.A.HasTuple("S", v)
		m.uVal[v] = d.VertexWeight[v]
	}
	return m
}

// apply validates one change against the mirror state and folds it in.
func (m *cdcMirror) apply(t *testing.T, i int, c workload.Change) {
	t.Helper()
	ins := c.Present == nil || *c.Present
	switch {
	case c.Weight == "w":
		e, ok := m.edgeIdx[[2]int(c.Tuple)]
		if !ok || !m.present[e] {
			t.Fatalf("change %d: w update on absent edge %v", i, c.Tuple)
		}
		m.wVal[e] = c.Value
	case c.Weight == "u":
		m.uVal[c.Tuple[0]] = c.Value
	case c.Rel == "E":
		e, ok := m.edgeIdx[[2]int(c.Tuple)]
		if !ok {
			t.Fatalf("change %d: E change on non-original edge %v (Gaifman-unsafe)", i, c.Tuple)
		}
		if m.present[e] == ins {
			t.Fatalf("change %d: redundant E change %v (present=%v twice)", i, c.Tuple, ins)
		}
		m.present[e] = ins
	case c.Rel == "S":
		v := c.Tuple[0]
		if m.inS[v] == ins {
			t.Fatalf("change %d: redundant S change on %d", i, v)
		}
		m.inS[v] = ins
	default:
		t.Fatalf("change %d: unclassifiable change %+v", i, c)
	}
}

// TestChangeStreamMillionScale: a ≥10⁶-change CDC stream is exactly n
// changes long, deterministic, self-consistent (no redundant toggles, no
// weight updates on absent edges) and Gaifman-safe by construction (E
// changes only ever toggle original edges); the NDJSON encoding holds one
// valid /ingest line per change.
func TestChangeStreamMillionScale(t *testing.T) {
	if testing.Short() {
		t.Skip("million-change generation is skipped in -short mode")
	}
	d := workload.Grid(40, 40, 11)
	const n = 1_000_000

	m := newCDCMirror(d)
	count := 0
	for c := range workload.ChangeStream(d, n, 5) {
		m.apply(t, count, c)
		count++
	}
	if count != n {
		t.Fatalf("stream yielded %d changes, want %d", count, n)
	}

	// Determinism: a second run replays the identical prefix.
	var first, second []workload.Change
	for c := range workload.ChangeStream(d, 500, 5) {
		first = append(first, c)
	}
	for c := range workload.ChangeStream(d, 500, 5) {
		second = append(second, c)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same (d, n, seed) produced different streams")
	}

	// NDJSON encoding: one line per change, each a valid /ingest line that
	// decodes back to the change it encodes (spot-checked).
	var buf bytes.Buffer
	if err := workload.WriteChanges(&buf, d, n, 5); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != n {
		t.Fatalf("WriteChanges emitted %d lines, want %d", len(lines), n)
	}
	i := 0
	for c := range workload.ChangeStream(d, n, 5) {
		if i%97 == 0 {
			var got workload.Change
			if err := json.Unmarshal(lines[i], &got); err != nil {
				t.Fatalf("line %d %q: %v", i, lines[i], err)
			}
			want := c
			want.Tuple = append([]int(nil), c.Tuple...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("line %d decoded to %+v, want %+v", i, got, want)
			}
		}
		i++
	}
}

// TestChangeStreamAppliesCleanly: replaying a CDC stream through a real
// session succeeds change-by-change, and the final aggregate equals the
// value computed from scratch on the stream's end state — the generator's
// claim of being "suitable for POST /ingest" holds at the engine level.
func TestChangeStreamAppliesCleanly(t *testing.T) {
	ctx := context.Background()
	d := workload.Grid(12, 12, 3)
	const expr = "sum x, y . [E(x,y)] * w(x,y) + sum x . [S(x)] * u(x)"

	p, err := agg.Open(agg.FromStructure(d.A, d.Weights())).Prepare(ctx, expr, agg.WithDynamic("E", "S"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	m := newCDCMirror(d)
	var wave []agg.Change
	i := 0
	for c := range workload.ChangeStream(d, 3000, 9) {
		m.apply(t, i, c)
		i++
		wave = append(wave, agg.Change{
			Weight:  c.Weight,
			Rel:     c.Rel,
			Tuple:   c.Tuple,
			Value:   c.Value,
			Present: c.Present == nil || *c.Present,
		})
		if len(wave) == 256 {
			if err := sess.ApplyBatch(wave); err != nil {
				t.Fatalf("wave ending at change %d: %v", i, err)
			}
			wave = wave[:0]
		}
	}
	if err := sess.ApplyBatch(wave); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: evaluate the same query from scratch on the mirrored end
	// state.
	b2 := structure.NewBuilder(workload.GraphSignature(), d.A.N)
	w2 := structure.NewWeights[int64]()
	for e, tup := range m.edges {
		if m.present[e] {
			b2.MustAddTuple("E", tup...)
			w2.Set("w", tup, m.wVal[e])
		}
	}
	for v := 0; v < d.A.N; v++ {
		if m.inS[v] {
			b2.MustAddTuple("S", v)
		}
		w2.Set("u", structure.Tuple{v}, m.uVal[v])
	}
	p2, err := agg.Open(agg.FromStructure(b2.Build(), w2)).Prepare(ctx, expr)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := p2.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	want, err := sess2.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("session value after replay = %s, oracle on end state = %s", got, want)
	}
}
