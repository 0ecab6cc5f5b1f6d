package compile

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

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

	// MaxBracketAtoms is forwarded to expr.Normalize.
	MaxBracketAtoms int

	// SkipQuantifierElimination disables the qe preprocessing; brackets must
	// then already be quantifier free.
	SkipQuantifierElimination bool
}

// Stats summarises the work performed by the compiler.
type Stats struct {
	Monomials         int
	Colors            int
	ColorAssignments  int
	PrunedAssignments int
	Forests           int
	Shapes            int
	MaxForestDepth    int
}

// Result is the outcome of compiling a closed weighted expression over a
// structure: a semiring-agnostic circuit whose inputs are the weights of the
// database (and, for dynamic relations, tuple-membership indicators), plus
// the bookkeeping needed to evaluate and update it.
type Result struct {
	// Circuit is the compiled circuit in builder form; it is kept for
	// structural inspection (Statistics, knowledge-compilation analysis).
	Circuit *circuit.Circuit
	// Program is the frozen CSR form of Circuit, compiled once at the end of
	// Compile.  Every execution layer — evaluation, dynamic sessions,
	// enumeration — runs on this shared immutable artefact.
	Program *circuit.Program
	// Structure is the (possibly quantifier-elimination-extended) structure
	// the circuit was compiled against.
	Structure *structure.Structure
	// Original is the structure passed to Compile.
	Original *structure.Structure
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

	work := a
	var err error
	if !opts.SkipQuantifierElimination {
		work, e, err = eliminateBrackets(a, e, opts.DynamicRelations)
		if err != nil {
			return nil, err
		}
	}

	poly, err := expr.Normalize(e, expr.NormalizeOptions{MaxBracketAtoms: opts.MaxBracketAtoms})
	if err != nil {
		return nil, err
	}
	if free := poly.FreeVars(); len(free) > 0 {
		return nil, fmt.Errorf("compile: expression has free variables %v; close it or use dynamicq.CompileQuery", free)
	}

	res := &Result{
		Structure:        work,
		Original:         a,
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
		if len(pm.vars) > maxVars {
			maxVars = len(pm.vars)
		}
		prepared = append(prepared, pm)
	}
	res.Stats.Monomials = len(prepared)

	gaifman := work.Gaifman()
	var coloring *graph.Coloring
	if maxVars >= 2 {
		coloring = graph.LowTreedepthColoring(gaifman, maxVars)
		res.Coloring = coloring
		res.Stats.Colors = coloring.NumColors
	}

	env := &compileEnv{
		c:        c,
		a:        work,
		gaifman:  gaifman,
		coloring: coloring,
		dyn:      dyn,
		forests:  map[string]*colorForest{},
		stats:    &res.Stats,
	}
	if coloring != nil {
		env.buildColorIndexes()
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
	c        *circuit.Circuit
	a        *structure.Structure
	gaifman  *graph.Graph
	coloring *graph.Coloring
	dyn      map[string]bool
	// forests caches colour forests by sorted colour-set key.
	forests map[string]*colorForest
	// colorClasses[c] lists original elements of colour c.
	colorClasses [][]int
	// relColorTuples[rel] is the set of colour tuples realised by the static
	// relation rel, used to prune colour assignments.
	relColorTuples map[string]map[string]bool
	// edgeColorPairs holds the colour pairs of Gaifman edges.
	edgeColorPairs map[[2]int]bool
	stats          *Stats
}

func (env *compileEnv) buildColorIndexes() {
	col := env.coloring.Color
	env.colorClasses = make([][]int, env.coloring.NumColors)
	for v, c := range col {
		env.colorClasses[c] = append(env.colorClasses[c], v)
	}
	env.relColorTuples = map[string]map[string]bool{}
	for _, r := range env.a.Sig.Relations {
		set := map[string]bool{}
		for _, t := range env.a.Tuples(r.Name) {
			set[colorTupleKey(col, t)] = true
		}
		env.relColorTuples[r.Name] = set
	}
	env.edgeColorPairs = map[[2]int]bool{}
	for _, e := range env.gaifman.Edges() {
		c1, c2 := col[e[0]], col[e[1]]
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		env.edgeColorPairs[[2]int{c1, c2}] = true
	}
}

func colorTupleKey(color []int, t structure.Tuple) string {
	var b strings.Builder
	for i, e := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", color[e])
	}
	return b.String()
}

// compileMonomial compiles one prepared monomial into a gate.
func (env *compileEnv) compileMonomial(pm *preparedMonomial) (int, error) {
	// Nullary weights and the integer coefficient multiply the whole
	// monomial.
	prefix := []int{env.c.Const(pm.coeff)}
	for _, w := range pm.nullaryWeights {
		prefix = append(prefix, env.c.Input(structure.MakeWeightKey(w.W, structure.Tuple{})))
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
// aggregation is a plain sum over the domain, no decomposition needed.
func (env *compileEnv) compileSingleVariable(pm *preparedMonomial) int {
	v := pm.vars[0]
	_ = v
	var terms []int
	for el := 0; el < env.a.N; el++ {
		factors := make([]int, 0, len(pm.weights)+len(pm.literals))
		ok := true
		for _, l := range pm.literals {
			tuple := constantTuple(el, len(l.Args))
			if env.dyn[l.Rel] {
				factors = append(factors, env.c.Input(relationInputKey(l.Rel, tuple, l.Positive)))
				continue
			}
			if env.a.HasTuple(l.Rel, tuple...) != l.Positive {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, w := range pm.weights {
			factors = append(factors, env.c.Input(structure.MakeWeightKey(w.W, constantTuple(el, len(w.Args)))))
		}
		terms = append(terms, env.c.Mul(factors...))
	}
	return env.c.Add(terms...)
}

func constantTuple(el, arity int) structure.Tuple {
	t := make(structure.Tuple, arity)
	for i := range t {
		t[i] = el
	}
	return t
}

// compileJoined handles monomials with at least two bound variables via the
// colour decomposition, elimination forests and shapes.
func (env *compileEnv) compileJoined(pm *preparedMonomial) (int, error) {
	k := len(pm.vars)
	col := env.coloring.Color

	// Positive static literals and equality literals prune colour
	// assignments; comparability requirements prune to Gaifman-edge colour
	// pairs.
	type litCheck struct {
		rel     string
		argIdx  []int
		dynamic bool
	}
	var checks []litCheck
	var equalPairs [][2]int
	var comparePairs [][2]int
	for _, l := range pm.literals {
		if l.IsEquality() {
			if l.Positive {
				equalPairs = append(equalPairs, [2]int{pm.varIndex[l.Args[0]], pm.varIndex[l.Args[1]]})
			}
			continue
		}
		if !l.Positive {
			continue
		}
		idx := make([]int, len(l.Args))
		for i, arg := range l.Args {
			idx[i] = pm.varIndex[arg]
		}
		checks = append(checks, litCheck{rel: l.Rel, argIdx: idx, dynamic: env.dyn[l.Rel]})
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				if idx[i] != idx[j] {
					comparePairs = append(comparePairs, [2]int{idx[i], idx[j]})
				}
			}
		}
	}
	for _, w := range pm.weights {
		if len(w.Args) < 2 {
			continue
		}
		for i := 0; i < len(w.Args); i++ {
			for j := i + 1; j < len(w.Args); j++ {
				a, b := pm.varIndex[w.Args[i]], pm.varIndex[w.Args[j]]
				if a != b {
					comparePairs = append(comparePairs, [2]int{a, b})
				}
			}
		}
	}

	assign := make([]int, k)
	var gates []int

	// admissible checks the pruning conditions restricted to the variables
	// assigned so far (indices < upto).
	admissible := func(upto int) bool {
		for _, p := range equalPairs {
			if p[0] < upto && p[1] < upto && assign[p[0]] != assign[p[1]] {
				return false
			}
		}
		for _, p := range comparePairs {
			if p[0] < upto && p[1] < upto {
				c1, c2 := assign[p[0]], assign[p[1]]
				if c1 == c2 {
					continue
				}
				key := [2]int{c1, c2}
				if c1 > c2 {
					key = [2]int{c2, c1}
				}
				if !env.edgeColorPairs[key] {
					return false
				}
			}
		}
		for _, ch := range checks {
			if ch.dynamic {
				continue
			}
			all := true
			for _, vi := range ch.argIdx {
				if vi >= upto {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			t := make(structure.Tuple, len(ch.argIdx))
			for i, vi := range ch.argIdx {
				t[i] = assign[vi]
			}
			if !env.relColorTuples[ch.rel][t.Key()] {
				return false
			}
		}
		return true
	}

	var rec func(i int) error
	rec = func(i int) error {
		if i == k {
			env.stats.ColorAssignments++
			g, err := env.compileColored(pm, assign)
			if err != nil {
				return err
			}
			if g != env.c.Zero() {
				gates = append(gates, g)
			}
			return nil
		}
		for col := 0; col < env.coloring.NumColors; col++ {
			if len(env.colorClasses[col]) == 0 {
				continue
			}
			assign[i] = col
			if !admissible(i + 1) {
				env.stats.PrunedAssignments++
				continue
			}
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	_ = col
	if err := rec(0); err != nil {
		return 0, err
	}
	return env.c.Add(gates...), nil
}

// compileColored compiles a monomial under a fixed colour assignment of its
// variables: the induced subgraph on the used colours is decomposed by an
// elimination forest, shapes are enumerated and compiled.
func (env *compileEnv) compileColored(pm *preparedMonomial, colorAssign []int) (int, error) {
	cf, err := env.forestFor(colorAssign)
	if err != nil {
		return 0, err
	}
	if cf.forest.N() == 0 {
		return env.c.Zero(), nil
	}
	constraints := pm.shapeConstraintsFor(cf)
	shapes := enumerateShapes(constraints)
	env.stats.Shapes += len(shapes)
	if cf.maxDepth > env.stats.MaxForestDepth {
		env.stats.MaxForestDepth = cf.maxDepth
	}
	var gates []int
	assignCopy := append([]int(nil), colorAssign...)
	for _, sh := range shapes {
		b := newShapeBuilder(env.c, env.a, cf, pm, assignCopy, env.coloring.Color, env.dyn, sh)
		g := b.build()
		if g != env.c.Zero() {
			gates = append(gates, g)
		}
	}
	return env.c.Add(gates...), nil
}

// forestFor returns the (cached) colour forest for the set of colours used
// by an assignment.
func (env *compileEnv) forestFor(colorAssign []int) (*colorForest, error) {
	set := map[int]bool{}
	for _, c := range colorAssign {
		set[c] = true
	}
	cols := make([]int, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	key := fmt.Sprint(cols)
	if cf, ok := env.forests[key]; ok {
		return cf, nil
	}
	var vertices []int
	for _, c := range cols {
		vertices = append(vertices, env.colorClasses[c]...)
	}
	sort.Ints(vertices)
	cf, err := buildColorForest(env.gaifman, vertices)
	if err != nil {
		return nil, err
	}
	env.forests[key] = cf
	env.stats.Forests++
	return cf, nil
}

// ---------------------------------------------------------------------------
// Valuations
// ---------------------------------------------------------------------------

// NewValuation builds the circuit valuation combining a weight assignment
// with the 0/1 dynamic-relation inputs read from the compiled structure.
func NewValuation[T any](res *Result, s semiring.Semiring[T], w *structure.Weights[T]) circuit.Valuation[T] {
	return func(key structure.WeightKey) (T, bool) {
		if rel, tuple, positive, ok := DecodeRelationKey(key); ok {
			holds := res.Structure.HasTuple(rel, tuple...)
			return semiring.Iverson(s, holds == positive), true
		}
		if w == nil {
			var zero T
			return zero, false
		}
		return w.GetKey(key)
	}
}

// Evaluate compiles nothing further: it evaluates the compiled program in
// the given semiring under the given weights (unit-cost model, result (A) of
// the paper).
func Evaluate[T any](res *Result, s semiring.Semiring[T], w *structure.Weights[T]) T {
	return circuit.EvaluateProgram(res.Program, s, NewValuation(res, s, w))
}

// EvaluateParallel evaluates the compiled program like Evaluate but spreads
// each topological level of gates across workers goroutines (≤ 0 selects
// GOMAXPROCS), using the level schedule baked in at freeze time.
func EvaluateParallel[T any](res *Result, s semiring.Semiring[T], w *structure.Weights[T], workers int) T {
	vals := circuit.ParallelEvaluateAllProgram(res.Program, s, NewValuation(res, s, w), workers)
	return vals[res.Program.OutputGate()]
}

// EvaluateParallelCtx evaluates like EvaluateParallel but honours
// cancellation: when ctx is cancelled mid-evaluation the level-parallel
// engine stops in bounded time and the context's error is returned.
func EvaluateParallelCtx[T any](ctx context.Context, res *Result, s semiring.Semiring[T], w *structure.Weights[T], workers int) (T, error) {
	vals, err := circuit.ParallelEvaluateAllProgramCtx(ctx, res.Program, s, NewValuation(res, s, w), workers)
	if err != nil {
		var zero T
		return zero, err
	}
	return vals[res.Program.OutputGate()], nil
}

// BigCoefficient is a helper exposing big.Int construction to callers
// without importing math/big (used by examples).
func BigCoefficient(n int64) *big.Int { return big.NewInt(n) }
