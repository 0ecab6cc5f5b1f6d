package compile

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/qe"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Options configures compilation.
type Options struct {
	// DynamicRelations lists relation symbols whose tuples may later be
	// inserted or deleted by Gaifman-preserving updates (Lemma 40 of the
	// paper).  Literals over these relations become 0/1 weight inputs of the
	// circuit rather than compile-time constants.
	DynamicRelations []string

	// MaxVars bounds the number of bound variables per monomial; it guards
	// the 2^k / 3^k blow-ups of permanent maintenance and shape enumeration.
	// Zero means the default of 4.
	MaxVars int
}

// Stats summarises the work performed by the compiler.
type Stats struct {
	Monomials int
	Colors    int
	// ColorAssignments counts the boxes compiled (a colour and a candidate
	// set per variable); PrunedAssignments the colours tried for a variable
	// that left some candidate set empty.
	ColorAssignments  int
	PrunedAssignments int
	// Forests counts the elimination forests built, Shapes the (box, shape)
	// pairs compiled.
	Forests        int
	Shapes         int
	MaxForestDepth int
}

// Result is the outcome of compiling a closed weighted expression over a
// structure: a semiring-agnostic circuit whose inputs are the weights of the
// database (and, for dynamic relations, tuple-membership indicators), plus
// the bookkeeping needed to evaluate and update it.
type Result struct {
	// Circuit is the builder the circuit was compiled with.  It shares its
	// arenas with Program, so keeping it costs only its constant index; it
	// is kept so a caller can extend the circuit or freeze it again.
	Circuit *circuit.Circuit
	// Program is Circuit frozen once at the end of Compile.  Every execution
	// layer — evaluation, dynamic sessions, enumeration — runs on this shared
	// immutable artefact.
	Program *circuit.Program
	// Structure is the (possibly quantifier-elimination-extended) structure
	// the circuit was compiled against.
	Structure *structure.Structure
	// Polynomial is the normalised form of the expression.
	Polynomial *expr.Polynomial
	// Coloring is the low-treedepth colouring used (nil when no monomial has
	// two or more variables).
	Coloring *graph.Coloring
	// DynamicRelations is the set of relations compiled as weight inputs.
	DynamicRelations map[string]bool
	// Stats summarises compilation work.
	Stats Stats
}

// Compile compiles the closed weighted expression e over the structure a
// into a circuit with permanent gates (Theorem 6).  The expression may use
// quantifiers within the guarded-existential fragment supported by
// internal/qe; selections over dynamic relations must be quantifier free.
func Compile(a *structure.Structure, e expr.Expr, opts Options) (*Result, error) {
	if opts.MaxVars == 0 {
		opts.MaxVars = 4
	}
	if err := expr.Validate(e, a.Sig); err != nil {
		return nil, err
	}
	dyn := map[string]bool{}
	for _, r := range opts.DynamicRelations {
		if _, ok := a.Sig.Relation(r); !ok {
			return nil, fmt.Errorf("compile: dynamic relation %q is not in the signature", r)
		}
		dyn[r] = true
	}

	work, e, err := eliminateBrackets(a, e, opts.DynamicRelations)
	if err != nil {
		return nil, err
	}

	poly, err := expr.Normalize(e, expr.NormalizeOptions{})
	if err != nil {
		return nil, err
	}
	if free := poly.FreeVars(); len(free) > 0 {
		return nil, fmt.Errorf("compile: expression has free variables %v; close it or use dynamicq.CompileQuery", free)
	}

	res := &Result{
		Structure:        work,
		Polynomial:       poly,
		DynamicRelations: dyn,
	}
	c := circuit.NewBuilder()

	// Prepare monomials and determine the colouring parameter.
	var prepared []*preparedMonomial
	maxVars := 0
	for _, m := range poly.Monomials {
		pm, err := prepareMonomial(m, work.N)
		if err != nil {
			return nil, err
		}
		if len(pm.vars) > opts.MaxVars {
			return nil, fmt.Errorf("compile: monomial uses %d joined variables, exceeding MaxVars=%d", len(pm.vars), opts.MaxVars)
		}
		if len(pm.vars) > maxJoinedVars {
			return nil, fmt.Errorf("compile: monomial uses %d joined variables, exceeding the supported maximum %d", len(pm.vars), maxJoinedVars)
		}
		if len(pm.vars) > maxVars {
			maxVars = len(pm.vars)
		}
		prepared = append(prepared, pm)
	}
	res.Stats.Monomials = len(prepared)

	var gaifman *graph.Graph
	var coloring *graph.Coloring
	if maxVars >= 2 {
		gaifman = work.Gaifman()
		coloring = graph.LowTreedepthColoring(gaifman, maxVars)
		res.Coloring = coloring
		res.Stats.Colors = coloring.NumColors
	}

	env := &compileEnv{
		c:       c,
		a:       work,
		gaifman: gaifman,
		dyn:     dyn,
		stats:   &res.Stats,
	}
	if coloring != nil {
		env.color = coloring.Color
		env.colorClasses = make([][]int, coloring.NumColors)
		for v, col := range coloring.Color {
			env.colorClasses[col] = append(env.colorClasses[col], v)
		}
		env.scratch.fb = graph.NewForestBuilder(gaifman)
		env.forests = map[string]*colorForest{}
		env.member = make([]uint64, work.N)
		env.seen = make([]uint32, work.N)
	}

	var gates []int
	for _, pm := range prepared {
		g, err := env.compileMonomial(pm)
		if err != nil {
			return nil, err
		}
		gates = append(gates, g)
	}
	c.SetOutput(c.Add(gates...))
	res.Circuit = c
	res.Program = c.Program()
	return res, nil
}

// eliminateBrackets applies quantifier elimination to every Iverson bracket
// of the expression, threading the progressively extended structure.
func eliminateBrackets(a *structure.Structure, e expr.Expr, dynamic []string) (*structure.Structure, expr.Expr, error) {
	work := a
	var walk func(x expr.Expr) (expr.Expr, error)
	walk = func(x expr.Expr) (expr.Expr, error) {
		switch y := x.(type) {
		case expr.Const, expr.Weight:
			return x, nil
		case expr.Bracket:
			if logic.IsQuantifierFree(y.F) {
				return x, nil
			}
			res, err := qe.Eliminate(work, y.F, dynamic)
			if err != nil {
				return nil, err
			}
			work = res.Structure
			return expr.Bracket{F: res.Formula}, nil
		case expr.Add:
			args := make([]expr.Expr, len(y.Args))
			for i, arg := range y.Args {
				na, err := walk(arg)
				if err != nil {
					return nil, err
				}
				args[i] = na
			}
			return expr.Add{Args: args}, nil
		case expr.Mul:
			args := make([]expr.Expr, len(y.Args))
			for i, arg := range y.Args {
				na, err := walk(arg)
				if err != nil {
					return nil, err
				}
				args[i] = na
			}
			return expr.Mul{Args: args}, nil
		case expr.Sum:
			arg, err := walk(y.Arg)
			if err != nil {
				return nil, err
			}
			return expr.Sum{Vars: y.Vars, Arg: arg}, nil
		default:
			return nil, fmt.Errorf("compile: unknown expression type %T", x)
		}
	}
	out, err := walk(e)
	if err != nil {
		return nil, nil, err
	}
	return work, out, nil
}

// compileEnv carries the shared state of one compilation run.
type compileEnv struct {
	c       *circuit.Circuit
	a       *structure.Structure
	gaifman *graph.Graph
	dyn     map[string]bool
	stats   *Stats

	// The rest serves monomials with two or more variables (boxes.go) and is
	// unset when there are none.

	// color[v] is the colour of element v; colorClasses[c] lists the
	// elements of colour c in increasing order.
	color        []int
	colorClasses [][]int
	// forests caches the forest of a set of whole colour classes, keyed by
	// the set's colours in increasing order as uvarints, which forestFor
	// sorts in colorSet and encodes in colorKey; scratch builds every forest,
	// over the elements of the box collected in vertices.
	scratch  forestScratch
	forests  map[string]*colorForest
	colorSet []int
	colorKey []byte
	vertices []int
	// member[v] has bit i set while element v is in the candidate set of
	// variable i of the box being enumerated.
	member []uint64
	// seen[v] == seenGen marks v as collected by the current union or reach.
	seen    []uint32
	seenGen uint32
	// tuple is the scratch buffer literal and weight arguments are resolved
	// into.
	tuple structure.Tuple
}

// compileMonomial compiles one prepared monomial into a gate.
func (env *compileEnv) compileMonomial(pm *preparedMonomial) (int, error) {
	pm.rels = make([]*structure.Relation, len(pm.literals))
	for li, l := range pm.literals {
		if l.IsEquality() || env.dyn[l.Rel] {
			continue
		}
		if pm.rels[li] = env.a.Relation(l.Rel); pm.rels[li] == nil {
			return 0, fmt.Errorf("compile: relation %q is not in the signature", l.Rel)
		}
	}
	// Nullary weights and the integer coefficient multiply the whole
	// monomial.
	prefix := []int{env.c.Const(pm.coeff)}
	for _, w := range pm.nullaryWeights {
		prefix = append(prefix, env.c.Input(w.W, structure.Ordinary, nil))
	}
	switch len(pm.vars) {
	case 0:
		return env.c.Mul(prefix...), nil
	case 1:
		g := env.compileSingleVariable(pm)
		return env.c.Mul(append(prefix, g)...), nil
	}
	g, err := env.compileJoined(pm)
	if err != nil {
		return 0, err
	}
	return env.c.Mul(append(prefix, g)...), nil
}

// compileSingleVariable handles monomials over one bound variable: the
// aggregation is a plain sum over the domain, no decomposition needed.  Every
// argument is that variable, so each term reads a prefix of the constant
// tuple (el, …, el), written into one buffer: Circuit.Input copies what it
// keeps and Relation.Has only reads, as does Circuit.Mul with the factors.
func (env *compileEnv) compileSingleVariable(pm *preparedMonomial) int {
	arity := 0
	for _, l := range pm.literals {
		arity = max(arity, len(l.Args))
	}
	for _, w := range pm.weights {
		arity = max(arity, len(w.Args))
	}
	tuple := make(structure.Tuple, arity)
	factors := make([]int, 0, len(pm.weights)+len(pm.literals))
	var terms []int
	for el := 0; el < env.a.N; el++ {
		for i := range tuple {
			tuple[i] = el
		}
		factors = factors[:0]
		ok := true
		for li, l := range pm.literals {
			t := tuple[:len(l.Args)]
			if env.dyn[l.Rel] {
				factors = append(factors, env.c.Input(l.Rel, membershipRole(l.Positive), t))
				continue
			}
			if pm.rels[li].Has(t...) != l.Positive {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, w := range pm.weights {
			factors = append(factors, env.c.Input(w.W, structure.Ordinary, tuple[:len(w.Args)]))
		}
		terms = append(terms, env.c.Mul(factors...))
	}
	return env.c.Add(terms...)
}

// ---------------------------------------------------------------------------
// Valuations
// ---------------------------------------------------------------------------

// NewValuation builds the circuit valuation combining a weight assignment
// with the 0/1 dynamic-relation inputs read from the compiled structure.
func NewValuation[T any](res *Result, s semiring.Semiring[T], w *structure.Weights[T]) circuit.Valuation[T] {
	return func(in circuit.Input) (T, bool) {
		if in.Role != structure.Ordinary {
			return semiring.Iverson(s, res.Structure.Holds(in.Symbol, in.Role, in.Tuple)), true
		}
		if w == nil {
			var zero T
			return zero, false
		}
		return w.Get(in.Symbol, in.Tuple)
	}
}

// Evaluate compiles nothing further: it evaluates the compiled program in
// the given semiring under the given weights (unit-cost model, result (A) of
// the paper).
func Evaluate[T any](res *Result, s semiring.Semiring[T], w *structure.Weights[T]) T {
	return circuit.EvaluateProgram(res.Program, s, NewValuation(res, s, w))
}

// EvaluateParallelCtx evaluates the compiled program like Evaluate but
// spreads each topological level of gates across workers goroutines (≤ 0
// selects GOMAXPROCS), using the level schedule baked in at freeze time, and
// honours cancellation: when ctx is cancelled mid-evaluation the level-parallel
// engine stops in bounded time and the context's error is returned.
func EvaluateParallelCtx[T any](ctx context.Context, res *Result, s semiring.Semiring[T], w *structure.Weights[T], workers int) (T, error) {
	vals, err := circuit.ParallelEvaluateAllProgramCtx(ctx, res.Program, s, NewValuation(res, s, w), workers)
	if err != nil {
		var zero T
		return zero, err
	}
	return vals[res.Program.OutputGate()], nil
}
