package agg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/structure"
)

// orderDB is a small directed graph with one-way edges (0→1, 1→2, 3→4, 4→1)
// and a two-way pair (2↔3), so "E(x,y) & !E(y,x)" has answers whose
// transposes are not answers.
const orderDB = `
domain 5
rel E 2
E 0 1
E 1 2
E 2 3
E 3 2
E 3 4
E 4 1
`

const oneWayEdge = "E(x,y) & !E(y,x)"

// formulaValue is the brute-force value of phi at args, read as an
// assignment to vars in order, in the spelling of the natural semiring.
func formulaValue(phi logic.Formula, a *structure.Structure, vars []string, args []int) Value {
	env := map[string]structure.Element{}
	for i, v := range vars {
		env[v] = args[i]
	}
	if logic.Eval(phi, a, env) {
		return "1"
	}
	return "0"
}

// firstPoint returns the first Update of a point subscription at args.
func firstPoint(t *testing.T, ctx context.Context, s *Session, args ...int) Value {
	t.Helper()
	for u, err := range s.Subscribe(ctx, SubscribePoint(args...)) {
		if err != nil {
			t.Fatalf("Subscribe(SubscribePoint(%v)): %v", args, err)
		}
		return u.Value
	}
	t.Fatalf("Subscribe(SubscribePoint(%v)) ended without an update", args)
	return ""
}

// TestEvalTakesArgumentsInAnswerVarOrder is the regression test for the two
// closures of one formula disagreeing about what an argument tuple means:
// with WithAnswerVars("y","x") every read path must take (y, x), the order
// FreeVars reports and Enumerate yields, before and after an update.
func TestEvalTakesArgumentsInAnswerVarOrder(t *testing.T) {
	ctx := context.Background()
	eng, err := OpenReader(strings.NewReader(orderDB))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	phi := parser.MustParseFormula(oneWayEdge)
	vars := []string{"y", "x"}
	p, err := eng.Prepare(ctx, oneWayEdge, WithAnswerVars(vars...), WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got := fmt.Sprint(p.FreeVars()); got != "[y x]" || fmt.Sprint(p.AnswerVars()) != got {
		t.Fatalf("FreeVars = %v, AnswerVars = %v; want [y x] twice", p.FreeVars(), p.AnswerVars())
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()

	// check compares all four read paths against the oracle on every pair of
	// elements, and every enumerated answer (and its transpose) on top.
	// static is the database as prepared, current the session's state.
	check := func(stage string, static, current *structure.Structure) {
		t.Helper()
		r, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", stage, err)
		}
		defer r.Close()
		at := func(args ...int) {
			t.Helper()
			if got, err := p.Eval(ctx, args...); err != nil || got != formulaValue(phi, static, vars, args) {
				t.Errorf("%s: Prepared.Eval%v = %q, %v; want %q", stage, args, got, err, formulaValue(phi, static, vars, args))
			}
			want := formulaValue(phi, current, vars, args)
			if got, err := s.Eval(ctx, args...); err != nil || got != want {
				t.Errorf("%s: Session.Eval%v = %q, %v; want %q", stage, args, got, err, want)
			}
			if got, err := r.Eval(ctx, args...); err != nil || got != want {
				t.Errorf("%s: Reader.Eval%v = %q, %v; want %q", stage, args, got, err, want)
			}
			if got := firstPoint(t, ctx, s, args...); got != want {
				t.Errorf("%s: first SubscribePoint%v update = %q; want %q", stage, args, got, want)
			}
		}
		for a := 0; a < static.N; a++ {
			for b := 0; b < static.N; b++ {
				at(a, b)
			}
		}
		answers := 0
		for ans, err := range r.Enumerate(ctx) {
			if err != nil {
				t.Fatalf("%s: Enumerate: %v", stage, err)
			}
			answers++
			if formulaValue(phi, current, vars, ans) != "1" || formulaValue(phi, current, vars, []int{ans[1], ans[0]}) != "0" {
				t.Errorf("%s: enumerated %v is not a one-way (y,x) edge", stage, ans)
			}
			at(ans...)
			at(ans[1], ans[0])
		}
		if answers == 0 {
			t.Fatalf("%s: no answers enumerated", stage)
		}
	}

	before := eng.db.a
	check("before update", before, before)

	// Removing the edge 0→1 removes the answer (y,x) = (1,0).
	edit := before.Edit()
	if err := edit.RemoveTuple("E", 0, 1); err != nil {
		t.Fatal(err)
	}
	after := edit.Build()
	if err := s.Set(SetTuple("E", []int{0, 1}, false)); err != nil {
		t.Fatalf("Set: %v", err)
	}
	check("after update", before, after)

	// Rebinding the semiring keeps the order.
	bl, err := p.In("boolean")
	if err != nil {
		t.Fatalf("In(boolean): %v", err)
	}
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
		if got, err := bl.Eval(ctx, ans...); err != nil || got != "true" {
			t.Errorf("In(boolean).Eval%v = %q, %v; want true", ans, got, err)
		}
		if got, err := bl.Eval(ctx, ans[1], ans[0]); err != nil || got != "false" {
			t.Errorf("In(boolean).Eval(%d,%d) = %q, %v; want false", ans[1], ans[0], got, err)
		}
	}
	if got := fmt.Sprint(bl.FreeVars()); got != "[y x]" {
		t.Errorf("rebound FreeVars = %s; want [y x]", got)
	}
}

// TestEvalAcceptsEveryAnswerVariable checks that an answer variable the
// formula does not mention is still a parameter of Eval — FreeVars asks for
// it — and that its value does not matter.
func TestEvalAcceptsEveryAnswerVariable(t *testing.T) {
	ctx := context.Background()
	eng, err := OpenReader(strings.NewReader(orderDB))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	phi := parser.MustParseFormula("E(x,y)")
	p, err := eng.Prepare(ctx, "E(x,y)", WithAnswerVars("x", "y", "z"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if n := len(p.FreeVars()); n != 3 {
		t.Fatalf("FreeVars = %v; want 3 variables", p.FreeVars())
	}
	if _, err := p.Eval(ctx, 0, 1); !errors.Is(err, ErrArgument) {
		t.Errorf("Eval with 2 of 3 arguments = %v; want ErrArgument", err)
	}
	if _, err := p.Eval(ctx, 0, 1, 2, 3); !errors.Is(err, ErrArgument) {
		t.Errorf("Eval with 4 of 3 arguments = %v; want ErrArgument", err)
	}
	n := eng.db.a.N
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			want := formulaValue(phi, eng.db.a, []string{"x", "y"}, []int{x, y})
			for z := 0; z < n; z++ {
				if got, err := p.Eval(ctx, x, y, z); err != nil || got != want {
					t.Errorf("Eval(%d,%d,%d) = %q, %v; want %q whatever z is", x, y, z, got, err, want)
				}
			}
		}
	}
}

// TestFormulaIsCompiledOnce follows one formula through every consumer of its
// closure with a tracer attached: point query, session, snapshot and
// enumeration all run on the program Prepare compiled.
func TestFormulaIsCompiledOnce(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.NewContext(context.Background(), tr)
	eng, err := OpenReader(strings.NewReader(orderDB))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	p, err := eng.Prepare(ctx, oneWayEdge, WithDynamic("E"))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	footprint := p.Footprint()
	if footprint <= 0 {
		t.Fatalf("Footprint = %d after Prepare", footprint)
	}
	if _, err := p.Eval(ctx, 0, 1); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	s, err := p.Session()
	if err != nil {
		t.Fatalf("Session: %v", err)
	}
	defer s.Close()
	r, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer r.Close()
	for _, err := range r.Enumerate(ctx) {
		if err != nil {
			t.Fatalf("Enumerate: %v", err)
		}
	}
	for _, stage := range []obs.Stage{obs.StageCompile, obs.StageFreeze} {
		if n := tr.Stage(stage).Snapshot().Count; n != 1 {
			t.Errorf("%v observed %d times; want once", stage, n)
		}
	}
	if got := p.Footprint(); got != footprint {
		t.Errorf("Footprint = %d after the first Session, %d before: a second program appeared", got, footprint)
	}
	if prog := p.enum.ans.Result().Program; p.sh.Result().Program != prog || prog.Footprint() != footprint {
		t.Errorf("the enumerator and the point queries run on different programs")
	}
}

// TestClosureSharesTheGaifmanGraph compiles the session workloads' point
// query on their input (pref-attach, n = 1,500) and a query whose quantifier
// is eliminated: the closure over the free variable and the derived predicate
// are views of the engine's database, so the Program's structure reads the
// database's Gaifman graph instead of building one of its own.
func TestClosureSharesTheGaifmanGraph(t *testing.T) {
	db, err := Generate("pref-attach", 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := Open(db)
	for _, q := range []string{
		"sum y,z . [E(x,y)&E(y,z)&!(x=z)] * u(y)*u(z)",
		"sum x . [exists y . E(x,y) & S(y)] * u(x)",
	} {
		p, err := eng.Prepare(context.Background(), q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		if a := p.sh.Result().Structure; a == db.a || a.Gaifman() != db.a.Gaifman() {
			t.Errorf("%s: the compiled structure is the database itself or has a Gaifman graph of its own", q)
		}
	}
}
