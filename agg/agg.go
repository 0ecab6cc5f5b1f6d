// Package agg is the public, embeddable facade over the paper's pipeline:
// compile an aggregate query over a bounded-expansion database into a
// circuit once, then answer, update and enumerate in near-linear time, from
// any Go program, in the style of database/sql:
//
//	db, err := agg.ReadDatabaseFile("roads.db")
//	eng := agg.Open(db)
//	p, err := eng.Prepare(ctx, "sum x, y . [E(x,y)] * w(x,y)",
//	    agg.WithSemiring("minplus"), agg.WithWorkers(8))
//	v, err := p.Eval(ctx)               // evaluate the compiled circuit
//
//	s, err := p.Session()               // dynamic updates (Theorem 8)
//	err = s.Set(agg.Change{Weight: "w", Tuple: []int{0, 1}, Value: 7})
//	v, err = s.Eval(ctx)
//
//	q, err := eng.Prepare(ctx, "E(x,y) & S(x)")
//	for ans, err := range q.Enumerate(ctx) { ... }  // constant delay
//
// Prepare accepts either a weighted expression (evaluated in a registered
// semiring — natural, minplus, boolean, provenance, or any carrier added
// with Register) or a first-order formula (whose answer set is counted and
// enumerated with constant delay, Theorem 24).  Compilation happens once per
// Prepare; evaluations, sessions and enumerations share the frozen circuit
// program.
//
// Every entry point takes a context.Context and honours cancellation:
// a cancelled context stops a Prepared's level-parallel evaluation in bounded
// time, fails a Prepare before and after compilation, and stops streaming
// iterators between answers.  Failures come from a typed taxonomy (ErrParse,
// ErrCompile, ErrUnknownSemiring, ErrSessionBusy, ...) that callers branch
// on with errors.Is / errors.As.
package agg

import (
	"context"
	"io"

	"repro/internal/parser"
)

// Engine serves queries over one database.  All methods are safe for
// concurrent use; an Engine holds no mutable state beyond its database.
type Engine struct {
	db *Database
}

// Open returns an engine over an already-loaded database.
func Open(db *Database) *Engine { return &Engine{db: db} }

// OpenReader loads a database from r in the dbio text format and opens an
// engine over it.
func OpenReader(r io.Reader) (*Engine, error) {
	db, err := ReadDatabase(r)
	if err != nil {
		return nil, err
	}
	return Open(db), nil
}

// OpenFile loads a database from a file in the dbio text format and opens an
// engine over it.
func OpenFile(path string) (*Engine, error) {
	db, err := ReadDatabaseFile(path)
	if err != nil {
		return nil, err
	}
	return Open(db), nil
}

// OpenSource loads a database from any Source and opens an engine over it.
func OpenSource(src Source) (*Engine, error) {
	db, err := Load(src)
	if err != nil {
		return nil, err
	}
	return Open(db), nil
}

// Database returns the engine's database.
func (e *Engine) Database() *Database { return e.db }

// Option configures one Prepare call.
type Option func(*config)

type config struct {
	semiring   string
	dynamic    []string
	workers    int
	maxVars    int
	answerVars []string
	nested     *Nested
}

// WithSemiring selects the registered semiring queries are evaluated in
// (default "natural"; see SemiringNames for the registry contents).
func WithSemiring(name string) Option {
	return func(c *config) { c.semiring = name }
}

// WithDynamic declares relations whose tuples may later be inserted or
// removed through sessions (Gaifman-preserving updates, Theorem 24's update
// model).  Literals over these relations compile to circuit inputs rather
// than compile-time constants.
func WithDynamic(relations ...string) Option {
	return func(c *config) { c.dynamic = append(c.dynamic, relations...) }
}

// WithWorkers sets the worker-pool size a Prepared's Eval spreads the
// circuit's levels over (≤ 0, the default, selects GOMAXPROCS): every closed
// Eval's, and the first point read's.  Enumeration preprocessing does not use
// it.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithMaxVars overrides the compiler's bound on joined variables per
// monomial (0 keeps the compiler default); it guards the exponential
// blow-ups of permanent maintenance and shape enumeration.
func WithMaxVars(n int) Option {
	return func(c *config) { c.maxVars = n }
}

// WithAnswerVars forces formula mode and fixes the parameter order of the
// query: the layout of the answer tuples Enumerate yields and, equally, the
// order in which Eval, Session.Eval, Reader.Eval and SubscribePoint take
// their arguments (FreeVars reports it).  The list must contain every free
// variable of the formula; a variable the formula does not mention ranges
// over the whole domain in answers and is ignored as an argument.  Without
// the option a query that parses as a formula uses its free variables in
// sorted order.
func WithAnswerVars(vars ...string) Option {
	return func(c *config) { c.answerVars = append(c.answerVars, vars...) }
}

// WithNested prepares a nested (FOG[C], Section 7) query instead of parsing
// the query text: the formula is the one built with the N* constructors, and
// the text argument of Prepare serves only as the display label in errors
// and diagnostics.  The Prepare semiring (WithSemiring) is the carrier of
// the formula's weight atoms, constants and brackets; guarded connectives
// move between carriers.  See Nested for the builder surface.
func WithNested(n *Nested) Option {
	return func(c *config) { c.nested = n }
}

// Canonicalize parses a query — weighted expression or first-order formula —
// and returns its canonical printed form.  Two query texts with the same
// canonical form compile to the same circuit, which makes the result the
// natural cache key for layers (like aggserve) that memoise compilations.
func Canonicalize(query string) (string, error) {
	ex, eerr := parser.ParseExpr(query)
	if eerr == nil {
		return parser.FormatExpr(ex), nil
	}
	phi, ferr := parser.ParseFormula(query)
	if ferr == nil {
		return parser.FormatFormula(phi), nil
	}
	return "", newError(ErrParse, query, betterParseError(eerr, ferr))
}

// CanonicalizeFormula parses a query as a first-order formula only and
// returns its canonical printed form; used as the cache key for enumeration
// endpoints, where expression syntax would be a mistake.
func CanonicalizeFormula(query string) (string, error) {
	phi, err := parser.ParseFormula(query)
	if err != nil {
		return "", newError(ErrParse, query, err)
	}
	return parser.FormatFormula(phi), nil
}

// Value is a formatted semiring value, as rendered by the semiring the query
// was prepared in.
type Value string

func (v Value) String() string { return string(v) }

// ensureCtx normalises a nil context.
func ensureCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
