// Package circuittest holds the reference evaluator that tests compare the
// Program engines against: an independent gate-by-gate walk of the circuit
// through the Program's exported accessors, sharing no code with the engines'
// sweeps (evaluateProgramGate, evaluateProgramPerm).  It is test support only
// — import it from _test.go files, never from an engine: circuit.Program is
// the one executable form.
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
// materialises its matrix for perm.Perm.
func EvaluateAll[T any](c *circuit.Circuit, s semiring.Semiring[T], v circuit.Valuation[T]) []T {
	p := c.Program()
	vals := make([]T, p.NumGates())
	for id := range vals {
		switch p.GateKind(id) {
		case circuit.KindInput:
			if x, ok := v(p.Input(id)); ok {
				vals[id] = x
			} else {
				vals[id] = s.Zero()
			}
		case circuit.KindConst:
			vals[id] = semiring.ScalarMulBig(s, p.ConstBig(id), s.One())
		case circuit.KindAdd:
			acc := s.Zero()
			for _, ch := range p.ChildIDs(id) {
				acc = s.Add(acc, vals[ch])
			}
			vals[id] = acc
		case circuit.KindMul:
			acc := s.One()
			for _, ch := range p.ChildIDs(id) {
				acc = s.Mul(acc, vals[ch])
			}
			vals[id] = acc
		case circuit.KindPerm:
			rows, cols := p.PermShape(id)
			m := perm.NewMatrix(s, rows, cols)
			p.ForEachPermEntry(id, func(row, col, gate int) { m.Set(row, col, vals[gate]) })
			vals[id] = perm.Perm(s, m)
		default:
			panic(fmt.Sprintf("circuittest: unknown gate kind %v", p.GateKind(id)))
		}
	}
	return vals
}
