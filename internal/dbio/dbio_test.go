package dbio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

func triangleQuery() expr.Expr {
	return expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
}

func TestRoundTripWorkloadDatabase(t *testing.T) {
	db := workload.BoundedDegree(80, 3, 7)
	weights := db.Weights()

	var buf bytes.Buffer
	if err := Write(&buf, db.A, weights); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}

	if got.A.N != db.A.N {
		t.Fatalf("domain size %d, want %d", got.A.N, db.A.N)
	}
	if got.A.TupleCount() != db.A.TupleCount() {
		t.Fatalf("tuple count %d, want %d", got.A.TupleCount(), db.A.TupleCount())
	}
	for _, rel := range db.A.Sig.Relations {
		for _, tup := range db.A.Tuples(rel.Name) {
			if !got.A.HasTuple(rel.Name, tup...) {
				t.Fatalf("tuple %s%v lost in round trip", rel.Name, tup)
			}
		}
	}
	if got.W.Len() != weights.Len() {
		t.Fatalf("weight count %d, want %d", got.W.Len(), weights.Len())
	}

	// The weighted triangle count must be identical on both copies.
	env := map[string]structure.Element{}
	want := expr.Eval[int64](semiring.Nat, db.A, weights, triangleQuery(), env)
	have := expr.Eval[int64](semiring.Nat, got.A, got.W, triangleQuery(), env)
	if want != have {
		t.Fatalf("triangle count changed in round trip: %d vs %d", have, want)
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	db := workload.Grid(8, 8, 3)
	var a, b bytes.Buffer
	if err := Write(&a, db.A, db.Weights()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, db.A, db.Weights()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("Write output is not deterministic")
	}
}

func TestReadSmallDatabase(t *testing.T) {
	input := `
# a tiny database
domain 4
rel E 2
rel S 1
wsym w 2
wsym u 1
E 0 1
E 1 2   # trailing comment
S 3
w 0 1 7
u 3 -2
`
	db, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if db.A.N != 4 {
		t.Errorf("domain = %d, want 4", db.A.N)
	}
	if !db.A.HasTuple("E", 0, 1) || !db.A.HasTuple("E", 1, 2) || !db.A.HasTuple("S", 3) {
		t.Errorf("missing tuples after Read")
	}
	if v, ok := db.W.Get("w", structure.Tuple{0, 1}); !ok || v != 7 {
		t.Errorf("w(0,1) = %d,%v want 7", v, ok)
	}
	if v, ok := db.W.Get("u", structure.Tuple{3}); !ok || v != -2 {
		t.Errorf("u(3) = %d,%v want -2", v, ok)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"tuple before domain", "rel E 2\nE 0 1\n"},
		{"unknown symbol", "domain 3\nrel E 2\nF 0 1\n"},
		{"bad arity", "domain 3\nrel E 2\nE 0 1 2\n"},
		{"element out of range", "domain 3\nrel E 2\nE 0 9\n"},
		{"negative element", "domain 3\nrel E 2\nE 0 -1\n"},
		{"bad weight value", "domain 3\nrel E 2\nwsym w 2\nE 0 1\nw 0 1 xyz\n"},
		{"duplicate domain", "domain 3\ndomain 4\n"},
		{"declaration after tuples", "domain 3\nrel E 2\nE 0 1\nrel F 1\n"},
		{"bad domain", "domain minusone\n"},
		{"declaration arity missing", "domain 3\nrel E\n"},
		{"no domain at all", "rel E 2\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Read unexpectedly succeeded", c.name)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	db := workload.Forest(100, 3, 5)
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := WriteFile(path, db.A, db.Weights()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.A.TupleCount() != db.A.TupleCount() {
		t.Fatalf("tuple count %d, want %d", got.A.TupleCount(), db.A.TupleCount())
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Errorf("ReadFile of a missing file should fail")
	}
}

func TestConvertWeights(t *testing.T) {
	w := structure.NewWeights[int64]()
	w.Set("w", structure.Tuple{0, 1}, 5)
	w.Set("u", structure.Tuple{2}, 0)
	mp := ConvertWeights(w, func(v int64) semiring.Ext { return semiring.Fin(v) })
	if v, ok := mp.Get("w", structure.Tuple{0, 1}); !ok || !semiring.MinPlus.Equal(v, semiring.Fin(5)) {
		t.Errorf("converted weight w(0,1) = %v, %v", v, ok)
	}
	if v, ok := mp.Get("u", structure.Tuple{2}); !ok || !semiring.MinPlus.Equal(v, semiring.Fin(0)) {
		t.Errorf("converted weight u(2) = %v, %v", v, ok)
	}
	if mp.Len() != w.Len() {
		t.Errorf("converted weight count %d, want %d", mp.Len(), w.Len())
	}
}
