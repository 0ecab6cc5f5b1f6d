package dbio

import (
	"bytes"
	"regexp"
	"testing"

	"repro/internal/structure"
)

// bigDomain matches a domain declaration of 100,000 elements or more, which
// the fuzzer skips: Read allocates per element of the declared domain.
var bigDomain = regexp.MustCompile(`(?m)^\s*domain\s+\+?0*\d{6,}`)

// FuzzReadWrite holds Write to be Read's inverse on whatever Read accepts:
// writing a database Read returned and reading it back gives the same domain,
// relations and weights, and writing that again gives the same bytes — which
// pins the order Write sorts weights in, by symbol and then element-wise by
// tuple.  The seed corpus (testdata/fuzz/FuzzReadWrite) holds elements out of
// the domain, negative and non-decimal elements, wrong arities and repeated
// weights and tuples.
func FuzzReadWrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if bigDomain.Match(data) {
			t.Skip("domain too large to fuzz")
		}
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Write(&first, db.A, db.W); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read of Write's output: %v\n%s", err, first.Bytes())
		}
		if again.A.N != db.A.N || len(again.A.Sig.Relations) != len(db.A.Sig.Relations) || len(again.A.Sig.Weights) != len(db.A.Sig.Weights) {
			t.Fatalf("domain %d with %d relations and %d weight symbols came back as %d, %d and %d",
				db.A.N, len(db.A.Sig.Relations), len(db.A.Sig.Weights), again.A.N, len(again.A.Sig.Relations), len(again.A.Sig.Weights))
		}
		for _, r := range db.A.Sig.Relations {
			decl, ok := again.A.Sig.Relation(r.Name)
			if !ok || decl != r || len(again.A.Tuples(r.Name)) != len(db.A.Tuples(r.Name)) {
				t.Fatalf("relation %v came back as %v (declared %v) with %d tuples, want %d", r, decl, ok, len(again.A.Tuples(r.Name)), len(db.A.Tuples(r.Name)))
			}
			for _, tu := range db.A.Tuples(r.Name) {
				if !again.A.HasTuple(r.Name, tu...) {
					t.Fatalf("tuple %s%v lost", r.Name, tu)
				}
			}
		}
		for _, s := range db.A.Sig.Weights {
			if decl, ok := again.A.Sig.Weight(s.Name); !ok || decl != s {
				t.Fatalf("weight symbol %v came back as %v (declared %v)", s, decl, ok)
			}
		}
		if again.W.Len() != db.W.Len() {
			t.Fatalf("%d weights came back as %d", db.W.Len(), again.W.Len())
		}
		db.W.Each(func(name string, tu structure.Tuple, v int64) {
			if got, ok := again.W.Get(name, tu); !ok || got != v {
				t.Fatalf("weight %s%v = %d came back as %d (set %v)", name, tu, v, got, ok)
			}
		})
		if err := Write(&second, again.A, again.W); err != nil {
			t.Fatalf("second Write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write is not stable under Read:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
