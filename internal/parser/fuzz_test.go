package parser

import "testing"

// FuzzParse holds the canonical form of whatever ParseExpr or ParseFormula
// accepts to be a fixed point: formatting the parse, parsing that text and
// formatting again gives the same text.  A server's compiled-query cache keys
// on the canonical form, so a text whose canonical form moved on a second
// round would miss the entry its own key made.  Each parser is checked on its
// own.  The seed corpus (testdata/fuzz/FuzzParse) holds the benchmark's
// queries, the README's examples and a digit of another script, which once
// made the lexer loop forever.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		if e, err := ParseExpr(input); err == nil {
			canon := FormatExpr(e)
			again, err := ParseExpr(canon)
			if err != nil {
				t.Fatalf("ParseExpr(%q) = %q, which does not parse: %v", input, canon, err)
			}
			if got := FormatExpr(again); got != canon {
				t.Fatalf("ParseExpr(%q) formats as %q, and that as %q", input, canon, got)
			}
		}
		if phi, err := ParseFormula(input); err == nil {
			canon := FormatFormula(phi)
			again, err := ParseFormula(canon)
			if err != nil {
				t.Fatalf("ParseFormula(%q) = %q, which does not parse: %v", input, canon, err)
			}
			if got := FormatFormula(again); got != canon {
				t.Fatalf("ParseFormula(%q) formats as %q, and that as %q", input, canon, got)
			}
		}
	})
}
