// Package circuittest holds the reference evaluator that tests compare the
// Program engines against: an independent gate-by-gate walk of the builder
// layout (Circuit.Gates), sharing no code with the frozen form's sweeps.  It
// is test support only — import it from _test.go files, never from an
// engine: circuit.Program is the one executable form.
package circuittest

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/perm"
	"repro/internal/semiring"
)

// EvaluateAll computes the value of every gate of the built circuit in the
// semiring s under the valuation v, returning the slice indexed by gate id.
// Constants go through big.Int arithmetic and every permanent gate
// materialises its column matrix for perm.PermColumns.
func EvaluateAll[T any](c *circuit.Circuit, s semiring.Semiring[T], v circuit.Valuation[T]) []T {
	vals := make([]T, len(c.Gates))
	for id := range c.Gates {
		g := &c.Gates[id]
		switch g.Kind {
		case circuit.KindInput:
			if x, ok := v(g.Key); ok {
				vals[id] = x
			} else {
				vals[id] = s.Zero()
			}
		case circuit.KindConst:
			vals[id] = semiring.ScalarMulBig(s, g.N, s.One())
		case circuit.KindAdd:
			acc := s.Zero()
			for _, ch := range g.Children {
				acc = s.Add(acc, vals[ch])
			}
			vals[id] = acc
		case circuit.KindMul:
			acc := s.One()
			for _, ch := range g.Children {
				acc = s.Mul(acc, vals[ch])
			}
			vals[id] = acc
		case circuit.KindPerm:
			cols := make([][]T, g.Cols)
			for c := range cols {
				col := make([]T, g.Rows)
				for r := range col {
					col[r] = s.Zero()
				}
				cols[c] = col
			}
			for _, e := range g.Entries {
				cols[e.Col][e.Row] = vals[e.Gate]
			}
			vals[id] = perm.PermColumns(s, g.Rows, func(c int) []T { return cols[c] }, g.Cols)
		default:
			panic(fmt.Sprintf("circuittest: unknown gate kind %v", g.Kind))
		}
	}
	return vals
}
