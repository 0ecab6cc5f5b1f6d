package parser

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
)

func mustSig() *structure.Signature {
	return structure.MustSignature(
		[]structure.RelSymbol{{Name: "E", Arity: 2}, {Name: "R", Arity: 1}, {Name: "V", Arity: 1}},
		[]structure.WeightSymbol{{Name: "w", Arity: 2}, {Name: "u", Arity: 1}},
	)
}

func buildStructure(n, m int, seed int64) (*structure.Structure, *structure.Weights[int64]) {
	sig := mustSig()
	b := structure.NewBuilder(sig, n)
	weights := structure.NewWeights[int64]()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		x, y := r.Intn(n), r.Intn(n)
		if _, dup := weights.Get("w", structure.Tuple{x, y}); x == y || dup {
			continue
		}
		b.MustAddTuple("E", x, y)
		weights.Set("w", structure.Tuple{x, y}, int64(r.Intn(9)+1))
	}
	for v := 0; v < n; v++ {
		if r.Intn(2) == 0 {
			b.MustAddTuple("R", v)
		}
		b.MustAddTuple("V", v)
		weights.Set("u", structure.Tuple{v}, int64(r.Intn(5)))
	}
	return b.Build(), weights
}

func TestParseExprBasics(t *testing.T) {
	cases := []struct {
		input string
		want  expr.Expr
	}{
		{"3", expr.N(3)},
		{"w(x, y)", expr.W("w", "x", "y")},
		{"u(x)", expr.W("u", "x")},
		{"c", expr.W("c")},
		{"c()", expr.W("c")},
		{"[E(x,y)]", expr.Guard(logic.R("E", "x", "y"))},
		{"2 + 3", expr.Plus(expr.N(2), expr.N(3))},
		{"2 * 3", expr.Times(expr.N(2), expr.N(3))},
		{"2 · 3", expr.Times(expr.N(2), expr.N(3))},
		{"2 + 3 * 4", expr.Plus(expr.N(2), expr.Times(expr.N(3), expr.N(4)))},
		{"(2 + 3) * 4", expr.Times(expr.Plus(expr.N(2), expr.N(3)), expr.N(4))},
		{"sum x . u(x)", expr.Agg([]string{"x"}, expr.W("u", "x"))},
		{"sum x, y . [E(x,y)] * w(x,y)",
			expr.Agg([]string{"x", "y"}, expr.Times(expr.Guard(logic.R("E", "x", "y")), expr.W("w", "x", "y")))},
		{"Σ_{x,y} ([E(x,y)])", expr.Agg([]string{"x", "y"}, expr.Guard(logic.R("E", "x", "y")))},
		{"sum x . u(x) + 1", expr.Agg([]string{"x"}, expr.Plus(expr.W("u", "x"), expr.N(1)))},
		{"(sum x . u(x)) + 1", expr.Plus(expr.Agg([]string{"x"}, expr.W("u", "x")), expr.N(1))},
	}
	for _, c := range cases {
		got, err := ParseExpr(c.input)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.input, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseExpr(%q) = %#v, want %#v", c.input, got, c.want)
		}
	}
}

func TestParseFormulaBasics(t *testing.T) {
	cases := []struct {
		input string
		want  logic.Formula
	}{
		{"true", logic.True()},
		{"false", logic.False()},
		{"E(x,y)", logic.R("E", "x", "y")},
		{"x = y", logic.Equal("x", "y")},
		{"x != y", logic.Neg(logic.Equal("x", "y"))},
		{"x ≠ y", logic.Neg(logic.Equal("x", "y"))},
		{"!E(x,y)", logic.Neg(logic.R("E", "x", "y"))},
		{"not E(x,y)", logic.Neg(logic.R("E", "x", "y"))},
		{"E(x,y) & E(y,x)", logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "x"))},
		{"E(x,y) and E(y,x)", logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "x"))},
		{"E(x,y) | E(y,x)", logic.Disj(logic.R("E", "x", "y"), logic.R("E", "y", "x"))},
		{"R(x) & R(y) | x = y",
			logic.Disj(logic.Conj(logic.R("R", "x"), logic.R("R", "y")), logic.Equal("x", "y"))},
		{"exists y . E(x,y)", logic.Ex([]string{"y"}, logic.R("E", "x", "y"))},
		{"∃y.(E(x,y))", logic.Ex([]string{"y"}, logic.R("E", "x", "y"))},
		{"forall y . E(x,y) | x = y",
			logic.All([]string{"y"}, logic.Disj(logic.R("E", "x", "y"), logic.Equal("x", "y")))},
		{"exists y, z . E(x,y) & E(y,z)",
			logic.Ex([]string{"y", "z"}, logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z")))},
		{"!(x = y) & E(x,y)",
			logic.Conj(logic.Neg(logic.Equal("x", "y")), logic.R("E", "x", "y"))},
	}
	for _, c := range cases {
		got, err := ParseFormula(c.input)
		if err != nil {
			t.Errorf("ParseFormula(%q): %v", c.input, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFormula(%q) = %#v, want %#v", c.input, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	exprInputs := []string{
		"",
		"+ 3",
		"3 +",
		"sum . u(x)",
		"sum x u(x) )",
		"[E(x,y)",
		"(2 + 3",
		"w(x,",
		"w(x y)",
		"2 2",
		"sum 3 . u(x)",
		"3 # 4",
		"٣",
		"u(x) * ۰",
	}
	for _, in := range exprInputs {
		if _, err := ParseExpr(in); err == nil {
			t.Errorf("ParseExpr(%q) unexpectedly succeeded", in)
		}
	}
	formulaInputs := []string{
		"",
		"E(x,y",
		"x =",
		"= y",
		"E(x,y) &",
		"exists . E(x,y)",
		"x",
		"E(x,y) extra(z)",
		"(E(x,y)",
		"٣",
		"u(x) * ۰",
	}
	for _, in := range formulaInputs {
		if _, err := ParseFormula(in); err == nil {
			t.Errorf("ParseFormula(%q) unexpectedly succeeded", in)
		}
	}
	// A digit of another script is an unexpected character, not a number.
	var perr *Error
	if _, err := ParseExpr("٣"); !errors.As(err, &perr) {
		t.Errorf("ParseExpr(%q) = %v, want a *Error", "٣", err)
	}
	if _, err := ParseFormula("٣"); !errors.As(err, &perr) {
		t.Errorf("ParseFormula(%q) = %v, want a *Error", "٣", err)
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseExpr("sum x . u(x) + + 2")
	if err == nil {
		t.Fatal("expected an error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("expected *Error, got %T", err)
	}
	if perr.Pos <= 0 || perr.Pos >= len(perr.Input) {
		t.Errorf("error position %d out of range", perr.Pos)
	}
	if !strings.Contains(err.Error(), "^") {
		t.Errorf("error message should contain a caret marker:\n%s", err)
	}
}

func TestParseTriangleQueryEvaluates(t *testing.T) {
	a, w := buildStructure(40, 140, 3)
	src := "sum x, y, z . [E(x,y) & E(y,z) & E(z,x)] * w(x,y) * w(y,z) * w(z,x)"
	parsed := MustParseExpr(src)
	built := expr.Agg([]string{"x", "y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.R("E", "z", "x"))),
		expr.W("w", "x", "y"), expr.W("w", "y", "z"), expr.W("w", "z", "x"),
	))
	got := expr.Eval[int64](semiring.Nat, a, w, parsed, map[string]structure.Element{})
	want := expr.Eval[int64](semiring.Nat, a, w, built, map[string]structure.Element{})
	if got != want {
		t.Fatalf("parsed query evaluates to %d, hand-built to %d", got, want)
	}
}

// randomTestExpr generates a random closed weighted expression over the
// signature of buildStructure, for round-trip testing.
func randomTestExpr(r *rand.Rand, vars []string, depth int) expr.Expr {
	pickVar := func() string { return vars[r.Intn(len(vars))] }
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return expr.N(int64(r.Intn(5)))
		case 1:
			return expr.W("u", pickVar())
		case 2:
			return expr.W("w", pickVar(), pickVar())
		default:
			switch r.Intn(3) {
			case 0:
				return expr.Guard(logic.R("E", pickVar(), pickVar()))
			case 1:
				return expr.Guard(logic.R("R", pickVar()))
			default:
				return expr.Guard(logic.Neg(logic.Equal(pickVar(), pickVar())))
			}
		}
	}
	switch r.Intn(3) {
	case 0:
		return expr.Plus(randomTestExpr(r, vars, depth-1), randomTestExpr(r, vars, depth-1))
	case 1:
		return expr.Times(randomTestExpr(r, vars, depth-1), randomTestExpr(r, vars, depth-1))
	default:
		v := "q" + string(rune('a'+r.Intn(3)))
		inner := append(append([]string(nil), vars...), v)
		return expr.Agg([]string{v}, randomTestExpr(r, inner, depth-1))
	}
}

func TestRoundTripRandomExpressions(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a, w := buildStructure(12, 40, 5)
	for round := 0; round < 120; round++ {
		e := expr.Agg([]string{"x", "y"}, randomTestExpr(r, []string{"x", "y"}, 3))
		want := expr.Eval[int64](semiring.Nat, a, w, e, map[string]structure.Element{})

		// Round-trip through the ASCII printer.
		ascii := FormatExpr(e)
		parsed, err := ParseExpr(ascii)
		if err != nil {
			t.Fatalf("round %d: ParseExpr(FormatExpr) failed on %q: %v", round, ascii, err)
		}
		if got := expr.Eval[int64](semiring.Nat, a, w, parsed, map[string]structure.Element{}); got != want {
			t.Fatalf("round %d: ASCII round-trip changed value: %d vs %d\nexpr: %s", round, got, want, ascii)
		}

		// Round-trip through the expression's own Unicode notation.
		uni := e.String()
		parsedUni, err := ParseExpr(uni)
		if err != nil {
			t.Fatalf("round %d: ParseExpr(String) failed on %q: %v", round, uni, err)
		}
		if got := expr.Eval[int64](semiring.Nat, a, w, parsedUni, map[string]structure.Element{}); got != want {
			t.Fatalf("round %d: Unicode round-trip changed value: %d vs %d\nexpr: %s", round, got, want, uni)
		}
	}
}

// randomTestFormula generates a random formula over E, R, = with the given
// free variables.
func randomTestFormula(r *rand.Rand, vars []string, depth int) logic.Formula {
	pickVar := func() string { return vars[r.Intn(len(vars))] }
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return logic.R("E", pickVar(), pickVar())
		case 1:
			return logic.R("R", pickVar())
		case 2:
			return logic.Equal(pickVar(), pickVar())
		default:
			return logic.True()
		}
	}
	switch r.Intn(4) {
	case 0:
		return logic.Conj(randomTestFormula(r, vars, depth-1), randomTestFormula(r, vars, depth-1))
	case 1:
		return logic.Disj(randomTestFormula(r, vars, depth-1), randomTestFormula(r, vars, depth-1))
	case 2:
		return logic.Neg(randomTestFormula(r, vars, depth-1))
	default:
		v := "q" + string(rune('a'+r.Intn(3)))
		inner := append(append([]string(nil), vars...), v)
		if r.Intn(2) == 0 {
			return logic.Ex([]string{v}, randomTestFormula(r, inner, depth-1))
		}
		return logic.All([]string{v}, randomTestFormula(r, inner, depth-1))
	}
}

func TestRoundTripRandomFormulas(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a, _ := buildStructure(10, 30, 9)
	vars := []string{"x", "y"}
	for round := 0; round < 150; round++ {
		f := randomTestFormula(r, vars, 3)
		want := logic.Answers(f, a, vars)

		ascii := FormatFormula(f)
		parsed, err := ParseFormula(ascii)
		if err != nil {
			t.Fatalf("round %d: ParseFormula(FormatFormula) failed on %q: %v", round, ascii, err)
		}
		got := logic.Answers(parsed, a, vars)
		if len(got) != len(want) {
			t.Fatalf("round %d: ASCII round-trip changed answers (%d vs %d) for %q", round, len(got), len(want), ascii)
		}

		uni := f.String()
		parsedUni, err := ParseFormula(uni)
		if err != nil {
			t.Fatalf("round %d: ParseFormula(String) failed on %q: %v", round, uni, err)
		}
		gotUni := logic.Answers(parsedUni, a, vars)
		if len(gotUni) != len(want) {
			t.Fatalf("round %d: Unicode round-trip changed answers for %q", round, uni)
		}
	}
}

func TestFormatExprExamples(t *testing.T) {
	e := expr.Agg([]string{"x", "y"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.Equal("x", "y")))),
		expr.Plus(expr.W("u", "x"), expr.N(1)),
	))
	got := FormatExpr(e)
	want := "sum x, y . [E(x, y) & x != y] * (u(x) + 1)"
	if got != want {
		t.Errorf("FormatExpr = %q, want %q", got, want)
	}
	f := logic.Ex([]string{"y"}, logic.Conj(logic.R("E", "x", "y"), logic.Disj(logic.R("R", "y"), logic.R("R", "x"))))
	gotF := FormatFormula(f)
	wantF := "exists y . E(x, y) & (R(y) | R(x))"
	if gotF != wantF {
		t.Errorf("FormatFormula = %q, want %q", gotF, wantF)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParseExpr should panic on invalid input")
		}
	}()
	MustParseExpr("sum . ")
}
