package agg

import "testing"

// FuzzCanonicalize holds Canonicalize to be idempotent on whatever it
// accepts, expression or formula: aggserve keys its compiled-query cache on
// the canonical form, so a canonical form that canonicalized to another text
// would miss the entry its own key made.  Unlike parser.FuzzParse, which checks
// each parser on its own, this crosses them: Canonicalize tries the
// expression parser first, so a formula's canonical form must not read as an
// expression.  The seed corpus (testdata/fuzz/FuzzCanonicalize) is the
// parser's: the benchmark's five queries, the README's examples and a digit of
// another script.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, query string) {
		canon, err := Canonicalize(query)
		if err != nil {
			return
		}
		again, err := Canonicalize(canon)
		if err != nil {
			t.Fatalf("Canonicalize(%q) = %q, which does not canonicalize: %v", query, canon, err)
		}
		if again != canon {
			t.Fatalf("Canonicalize(%q) = %q, and Canonicalize of that is %q", query, canon, again)
		}
	})
}
