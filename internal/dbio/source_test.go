package dbio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/structure"
)

// TestRoundTripProperty is the randomized Write→Read property test: for
// every workload family and several seeds, serialising and re-reading a
// database preserves the domain, every relation, and every weight — and a
// second Write of the re-read copy is byte-identical (the format has one
// canonical rendering per database).
func TestRoundTripProperty(t *testing.T) {
	kinds := []string{"bounded-degree", "grid", "forest", "pref-attach", "road"}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				db, err := LoadSource(Source{Kind: kind, N: 60, Seed: seed})
				if err != nil {
					t.Fatalf("LoadSource: %v", err)
				}
				var first bytes.Buffer
				if err := Write(&first, db.A, db.W); err != nil {
					t.Fatalf("Write: %v", err)
				}
				got, err := Read(bytes.NewReader(first.Bytes()))
				if err != nil {
					t.Fatalf("Read: %v", err)
				}
				if got.A.N != db.A.N {
					t.Fatalf("domain %d, want %d", got.A.N, db.A.N)
				}
				for _, rel := range db.A.Sig.Relations {
					want := db.A.Tuples(rel.Name)
					if have := got.A.Tuples(rel.Name); len(have) != len(want) {
						t.Fatalf("relation %s has %d tuples, want %d", rel.Name, len(have), len(want))
					}
					for _, tup := range want {
						if !got.A.HasTuple(rel.Name, tup...) {
							t.Fatalf("tuple %s%v lost", rel.Name, tup)
						}
					}
				}
				if got.W.Len() != db.W.Len() {
					t.Fatalf("weights %d, want %d", got.W.Len(), db.W.Len())
				}
				db.W.Each(func(name string, tup structure.Tuple, v int64) {
					if have, ok := got.W.Get(name, tup); !ok || have != v {
						t.Fatalf("weight %s%v = %d,%v want %d", name, tup, have, ok, v)
					}
				})
				var second bytes.Buffer
				if err := Write(&second, got.A, got.W); err != nil {
					t.Fatalf("second Write: %v", err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("Write∘Read∘Write is not the identity on the serialised form")
				}
			})
		}
	}
}

// TestReadMoreErrors extends the malformed-input matrix: broken
// declarations and out-of-domain or ill-typed weight lines.
func TestReadMoreErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"negative rel arity", "domain 3\nrel E -2\n"},
		{"non-numeric rel arity", "domain 3\nrel E two\n"},
		{"negative wsym arity", "domain 3\nwsym w -1\n"},
		{"wsym missing arity", "domain 3\nwsym w\n"},
		{"negative domain", "domain -4\n"},
		{"domain extra argument", "domain 4 5\n"},
		{"weight before domain", "wsym w 1\nw 0 5\n"},
		{"weight tuple out of domain", "domain 3\nwsym w 2\nw 0 7 5\n"},
		{"weight wrong arity", "domain 3\nwsym w 2\nw 0 5\n"},
		{"wsym after weights", "domain 3\nwsym w 1\nw 0 5\nwsym u 1\n"},
		{"duplicate relation declaration", "domain 3\nrel E 2\nrel E 2\nE 0 1\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Read unexpectedly succeeded", c.name)
		}
	}
}

func TestLoadSource(t *testing.T) {
	// Reader sources take precedence and parse the text format.
	text := "domain 2\nrel E 2\nwsym w 2\nE 0 1\nw 0 1 9\n"
	db, err := LoadSource(Source{Reader: strings.NewReader(text), Kind: "ignored"})
	if err != nil {
		t.Fatalf("LoadSource(Reader): %v", err)
	}
	if !db.A.HasTuple("E", 0, 1) {
		t.Errorf("reader-mounted database lost its tuple")
	}

	// File sources.
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = LoadSource(Source{Path: path})
	if err != nil {
		t.Fatalf("LoadSource(Path): %v", err)
	}
	if v, ok := db.W.Get("w", structure.Tuple{0, 1}); !ok || v != 9 {
		t.Errorf("file-mounted database lost its weight")
	}

	// Generated sources honour the per-kind degree defaults.
	db, err = LoadSource(Source{Kind: "bounded-degree", N: 50, Seed: 2})
	if err != nil {
		t.Fatalf("LoadSource(generated): %v", err)
	}
	if db.A.N == 0 || db.W.Len() == 0 {
		t.Errorf("generated database is empty")
	}

	if _, err := LoadSource(Source{Kind: "no-such-kind", N: 10}); err == nil {
		t.Errorf("unknown workload kind should fail")
	}
	if _, err := LoadSource(Source{Path: filepath.Join(t.TempDir(), "missing.txt")}); err == nil {
		t.Errorf("missing file should fail")
	}
}
