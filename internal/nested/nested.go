// Package nested implements nested weighted queries: the logic FOG[C] of
// Section 7 of the paper, in which formulas may aggregate in several
// semirings and move between them through guarded connectives.
//
// The evaluation follows the proof of Theorem 26: guarded connectives are
// processed innermost-first; the arguments of a connective are evaluated at
// every tuple of its guard relation using the weighted-query machinery of
// Theorem 8 (package dynamicq), the connective is applied pointwise, and the
// result is materialised as a derived relation (boolean output) or derived
// weight (semiring output) of an extended database.  Once no connectives
// remain, the formula is an ordinary flat query in a single semiring over
// that extended database, and Compile hands it back as a Stage for the flat
// engines to compile: dynamicq for values and point queries, enumerate for
// the constant-delay enumeration of a boolean one (result (E) of the paper).
//
// Every inner stage — S-valued connective arguments and boolean residues
// alike — is compiled once to a frozen circuit.Program, evaluated once, and
// read per guard tuple through a read-only point query (dynamicq.Static,
// Stage.At).  ReferenceEvalAt keeps the direct recursive semantics as a
// differential-testing oracle.
package nested

import (
	"context"
	"fmt"

	"repro/internal/dynamicq"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Semiring is a dynamically typed view of a semiring, used because a nested
// query mixes several carrier types in one syntax tree.
type Semiring interface {
	Name() string
	Zero() any
	One() any
	Add(a, b any) any
	Mul(a, b any) any
	Equal(a, b any) bool
	Format(a any) string
	// Less reports a < b when the carrier is ordered; ok is false otherwise.
	Less(a, b any) (less, ok bool)

	// reader evaluates the closure sh in this carrier under the given weights
	// and hands back its point query (Theorem 8), a read-only overlay read on
	// those values: the typed engine state behind a closure over dynamically
	// typed values.
	reader(sh *dynamicq.Shared, weights *structure.Weights[any]) (func(args []structure.Element) (any, error), error)
}

// box adapts a typed semiring to the dynamic interface.
type box[T any] struct {
	name string
	s    semiring.Semiring[T]
}

// Box wraps a typed semiring for use in nested queries.
func Box[T any](name string, s semiring.Semiring[T]) Semiring {
	return box[T]{name: name, s: s}
}

// Builtin boxed semirings used by the examples and tests.
var (
	BoolSemiring = Box[bool]("B", semiring.Bool)
	NatSemiring  = Box[int64]("N", semiring.Nat)
	IntSemiring  = Box[int64]("Z", semiring.Int)
	RatSemiring  = Box("Q", semiring.Rat)
	MaxPlus      = Box[semiring.Ext]("MaxPlus", semiring.MaxPlus)
	MinPlus      = Box[semiring.Ext]("MinPlus", semiring.MinPlus)
)

func (b box[T]) Name() string { return b.name }
func (b box[T]) Zero() any    { return b.s.Zero() }
func (b box[T]) One() any     { return b.s.One() }
func (b box[T]) Add(x, y any) any {
	return b.s.Add(x.(T), y.(T))
}
func (b box[T]) Mul(x, y any) any {
	return b.s.Mul(x.(T), y.(T))
}
func (b box[T]) Equal(x, y any) bool {
	return b.s.Equal(x.(T), y.(T))
}
func (b box[T]) Format(x any) string { return b.s.Format(x.(T)) }
func (b box[T]) Less(x, y any) (bool, bool) {
	ord, ok := b.s.(semiring.Ordered[T])
	if !ok {
		return false, false
	}
	return ord.Less(x.(T), y.(T)), true
}

func (b box[T]) reader(sh *dynamicq.Shared, weights *structure.Weights[any]) (func([]structure.Element) (any, error), error) {
	w, err := TypedWeights[T](weights)
	if err != nil {
		return nil, err
	}
	st, err := dynamicq.NewStatic(context.Background(), b.s, sh, w)
	if err != nil {
		return nil, err
	}
	return func(args []structure.Element) (any, error) { return st.Value(args...) }, nil
}

// TypedWeights converts dynamically typed weights into a weight assignment
// over the carrier T they were computed in.
func TypedWeights[T any](weights *structure.Weights[any]) (*structure.Weights[T], error) {
	w := structure.NewWeights[T]()
	var err error
	weights.Each(func(name string, t structure.Tuple, v any) {
		tv, ok := v.(T)
		if !ok && err == nil {
			err = fmt.Errorf("nested: weight %s%v has value %v of type %T, which is not its carrier %T", name, t, v, v, tv)
		}
		w.Set(name, t, tv)
	})
	return w, err
}

// Connective is a function between semirings, applied under a guard.
type Connective struct {
	Name  string
	Out   Semiring
	Apply func(args []any) any
}

// GreaterThan returns the boolean connective (a, b) ↦ a > b for an ordered
// semiring.
func GreaterThan(s Semiring) Connective {
	return Connective{
		Name: ">",
		Out:  BoolSemiring,
		Apply: func(args []any) any {
			less, ok := s.Less(args[1], args[0])
			if !ok {
				panic(fmt.Sprintf("nested: semiring %s is not ordered", s.Name()))
			}
			return less
		},
	}
}

// AtLeast returns the boolean connective (a, b) ↦ a ≥ b.
func AtLeast(s Semiring) Connective {
	return Connective{
		Name: "≥",
		Out:  BoolSemiring,
		Apply: func(args []any) any {
			less, ok := s.Less(args[0], args[1])
			if !ok {
				panic(fmt.Sprintf("nested: semiring %s is not ordered", s.Name()))
			}
			return !less
		},
	}
}

// IntoMaxPlus converts a natural number into the max-plus semiring (so that
// maxima over aggregates can be taken), mapping n to the finite element n.
var IntoMaxPlus = Connective{
	Name: "toMaxPlus",
	Out:  MaxPlus,
	Apply: func(args []any) any {
		return semiring.Fin(args[0].(int64))
	},
}

// RatioNat is the connective ℕ×ℕ → ℕ computing the integer ratio ⌊a/b⌋
// (0 when b = 0); it stands in for the rational division connective of the
// paper's example while keeping integer carriers.
var RatioNat = Connective{
	Name: "ratio",
	Out:  NatSemiring,
	Apply: func(args []any) any {
		a, b := args[0].(int64), args[1].(int64)
		if b == 0 {
			return int64(0)
		}
		return a / b
	},
}

// ---------------------------------------------------------------------------
// Formulas
// ---------------------------------------------------------------------------

// Formula is a nested weighted query formula.  Each formula has an output
// semiring.
type Formula interface {
	Out() Semiring
	String() string
}

// BRel is an atom of a boolean relation of the base structure.
type BRel struct {
	Rel  string
	Args []string
}

// SRel is an atom of a semiring-valued relation (stored as weights of the
// database).
type SRel struct {
	Rel  string
	Args []string
	S    Semiring
}

// ConstF is a semiring constant.
type ConstF struct {
	S     Semiring
	Value any
}

// Not negates a boolean formula.
type Not struct{ Arg Formula }

// BinOp is addition or multiplication within one semiring (∨/∧ when the
// semiring is boolean).
type BinOp struct {
	Mul  bool
	L, R Formula
}

// SumAgg is semiring aggregation Σ_x (existential quantification when the
// semiring is boolean).
type SumAgg struct {
	Vars []string
	Arg  Formula
}

// Iverson converts a boolean formula into 0/1 of another semiring.
type Iverson struct {
	S   Semiring
	Arg Formula
}

// Guarded is a guarded connective [R(x̄)]·c(ϕ1, ..., ϕk): the connective is
// applied only on tuples of the boolean guard relation R, which must contain
// every free variable of the arguments (the FOG[C] restriction).
type Guarded struct {
	GuardRel  string
	GuardArgs []string
	Conn      Connective
	Args      []Formula
}

func (f BRel) Out() Semiring    { return BoolSemiring }
func (f SRel) Out() Semiring    { return f.S }
func (f ConstF) Out() Semiring  { return f.S }
func (f Not) Out() Semiring     { return BoolSemiring }
func (f BinOp) Out() Semiring   { return f.L.Out() }
func (f SumAgg) Out() Semiring  { return f.Arg.Out() }
func (f Iverson) Out() Semiring { return f.S }
func (f Guarded) Out() Semiring { return f.Conn.Out }

func (f BRel) String() string { return fmt.Sprintf("%s(%v)", f.Rel, f.Args) }
func (f SRel) String() string { return fmt.Sprintf("%s(%v)", f.Rel, f.Args) }
func (f ConstF) String() string {
	return f.S.Format(f.Value)
}
func (f Not) String() string { return "¬(" + f.Arg.String() + ")" }
func (f BinOp) String() string {
	op := "+"
	if f.Mul {
		op = "·"
	}
	return "(" + f.L.String() + " " + op + " " + f.R.String() + ")"
}
func (f SumAgg) String() string  { return fmt.Sprintf("Σ_%v (%s)", f.Vars, f.Arg) }
func (f Iverson) String() string { return "[" + f.Arg.String() + "]_" + f.S.Name() }
func (f Guarded) String() string {
	return fmt.Sprintf("[%s(%v)]·%s(...)", f.GuardRel, f.GuardArgs, f.Conn.Name)
}

// Convenience constructors.

// B builds a boolean relation atom.
func B(rel string, args ...string) Formula { return BRel{Rel: rel, Args: args} }

// S builds a semiring-valued relation atom.
func S(s Semiring, rel string, args ...string) Formula { return SRel{Rel: rel, Args: args, S: s} }

// Val builds a semiring constant.
func Val(s Semiring, v any) Formula { return ConstF{S: s, Value: v} }

// Neg negates a boolean formula.
func Neg(f Formula) Formula { return Not{Arg: f} }

// Plus adds two formulas of the same semiring.
func Plus(l, r Formula) Formula { return BinOp{L: l, R: r} }

// Times multiplies two formulas of the same semiring.
func Times(l, r Formula) Formula { return BinOp{Mul: true, L: l, R: r} }

// Sum aggregates over variables.
func Sum(vars []string, f Formula) Formula { return SumAgg{Vars: vars, Arg: f} }

// Exists is boolean existential quantification (sugar for Sum over B).
func Exists(vars []string, f Formula) Formula { return SumAgg{Vars: vars, Arg: f} }

// Bracket converts a boolean formula to 0/1 of semiring s.
func Bracket(s Semiring, f Formula) Formula { return Iverson{S: s, Arg: f} }

// Guard applies a connective under a guard relation.
func Guard(guardRel string, guardArgs []string, conn Connective, args ...Formula) Formula {
	return Guarded{GuardRel: guardRel, GuardArgs: guardArgs, Conn: conn, Args: args}
}
