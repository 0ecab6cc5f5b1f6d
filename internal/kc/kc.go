// Package kc analyses compiled circuits through the lens of knowledge
// compilation and factorized databases.
//
// The paper observes that the circuits produced by Theorem 6 generalise
// deterministic decomposable negation normal forms (d-DNNF, Darwiche) and can
// be viewed as factorized representations of query answers (Olteanu and
// Závodný): multiplication and permanent gates combine sub-circuits over
// disjoint sets of inputs (decomposability), and addition gates combine
// mutually exclusive alternatives (determinism).  These structural
// properties are exactly what make counting, enumeration and updates cheap.
//
// Analysis runs on the frozen circuit.Program form — the artefact every
// production engine executes — walking the CSR arrays directly, so the
// properties are checked on exactly the object that is evaluated, maintained
// and enumerated, not on the legacy builder graph.
//
// This package makes those properties checkable:
//
//   - Analyze computes, for every gate, the set of weight inputs it depends
//     on, and CheckDecomposable verifies the disjointness conditions.
//   - CheckDeterministic verifies (semantically, via the free semiring) that
//     no addition or permanent gate produces the same monomial twice.
//   - ModelCount counts the monomials of the circuit — for the enumeration
//     circuits of Theorem 24 this is exactly the number of query answers.
//   - FactorizationReport quantifies how much smaller the circuit is than
//     the flat table of answers it represents.
//   - DOT renders the program for inspection with Graphviz.
package kc

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Analysis holds per-gate dependency information for a frozen program.
type Analysis struct {
	p *circuit.Program
	// vars lists the weight inputs of the program in a fixed order.
	vars []structure.WeightKey
	// varIndex maps an input gate id to its position in vars.
	varIndex map[int]int
	// sets[g] is a bitset over vars: the inputs reachable from gate g.
	sets []bitset
}

// bitset is a fixed-width bitset over the program's input variables.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }
func (b bitset) or(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}
func (b bitset) intersects(other bitset) bool {
	for i := range b {
		if b[i]&other[i] != 0 {
			return true
		}
	}
	return false
}
func (b bitset) count() int {
	total := 0
	for _, w := range b {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}

// Analyze computes the input-dependency sets of every gate by one pass over
// the program in id (hence topological) order.
func Analyze(p *circuit.Program) *Analysis {
	a := &Analysis{p: p, varIndex: map[int]int{}}
	n := p.NumGates()
	for id := 0; id < n; id++ {
		if p.GateKind(id) == circuit.KindInput {
			a.varIndex[id] = len(a.vars)
			a.vars = append(a.vars, p.InputKey(id))
		}
	}
	a.sets = make([]bitset, n)
	for id := 0; id < n; id++ {
		s := newBitset(len(a.vars))
		switch p.GateKind(id) {
		case circuit.KindInput:
			s.set(a.varIndex[id])
		case circuit.KindConst:
			// no dependencies
		default:
			// Add, Mul and Perm gates all list their operands in the
			// children arena (entry gates in entry order for permanents).
			for _, ch := range p.ChildIDs(id) {
				s.or(a.sets[ch])
			}
		}
		a.sets[id] = s
	}
	return a
}

// Program returns the analysed program.
func (a *Analysis) Program() *circuit.Program { return a.p }

// Variables lists the weight inputs of the program in analysis order.
func (a *Analysis) Variables() []structure.WeightKey {
	return append([]structure.WeightKey(nil), a.vars...)
}

// DependencyCount returns the number of inputs gate g depends on.
func (a *Analysis) DependencyCount(g int) int { return a.sets[g].count() }

// Violation describes a gate at which a structural property fails.
type Violation struct {
	// Gate is the offending gate id.
	Gate int
	// Property names the violated property ("decomposable" or "deterministic").
	Property string
	// Detail describes the failure.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("gate %d is not %s: %s", v.Gate, v.Property, v.Detail)
}

// CheckDecomposable verifies that every multiplication gate multiplies
// sub-circuits over pairwise disjoint input sets, and that in every permanent
// gate the columns depend on pairwise disjoint input sets.  These conditions
// guarantee that products never multiply two values derived from the same
// weight input, the circuit analogue of d-DNNF decomposability.
func (a *Analysis) CheckDecomposable() []Violation {
	var out []Violation
	for id := 0; id < a.p.NumGates(); id++ {
		switch a.p.GateKind(id) {
		case circuit.KindMul:
			kids := a.p.ChildIDs(id)
			for i := 0; i < len(kids); i++ {
				for j := i + 1; j < len(kids); j++ {
					if a.sets[kids[i]].intersects(a.sets[kids[j]]) {
						out = append(out, Violation{
							Gate:     id,
							Property: "decomposable",
							Detail: fmt.Sprintf("children %d and %d share input variables",
								kids[i], kids[j]),
						})
					}
				}
			}
		case circuit.KindPerm:
			cols := a.permColumnSets(id)
			keys := make([]int, 0, len(cols))
			for c := range cols {
				keys = append(keys, c)
			}
			sort.Ints(keys)
			for i := 0; i < len(keys); i++ {
				for j := i + 1; j < len(keys); j++ {
					if cols[keys[i]].intersects(cols[keys[j]]) {
						out = append(out, Violation{
							Gate:     id,
							Property: "decomposable",
							Detail: fmt.Sprintf("columns %d and %d share input variables",
								keys[i], keys[j]),
						})
					}
				}
			}
		}
	}
	return out
}

func (a *Analysis) permColumnSets(id int) map[int]bitset {
	cols := map[int]bitset{}
	a.p.ForEachPermEntry(id, func(row, col, gate int) {
		s, ok := cols[col]
		if !ok {
			s = newBitset(len(a.vars))
			cols[col] = s
		}
		s.or(a.sets[gate])
	})
	return cols
}

// CheckDeterministic verifies semantically that no gate produces the same
// monomial more than once when every input is interpreted as a distinct
// generator of the free semiring.  For the boolean enumeration circuits of
// Theorem 24 this is exactly the property that answers are enumerated
// without repetition.
//
// The check materialises one polynomial per gate, so it is intended for
// moderate circuits (tests, diagnostics), not for production-size databases.
func (a *Analysis) CheckDeterministic() []Violation {
	free := provenance.FreeSemiring{}
	val := func(key structure.WeightKey) (*provenance.Poly, bool) {
		// Name carries the role, so v⁺ and v⁻ of one tuple stay two generators.
		return provenance.Var(provenance.Generator(key.Name() + ":" + key.Tuple)), true
	}
	polys := circuit.EvaluateAllProgram[*provenance.Poly](a.p, free, val)
	var out []Violation
	for id, p := range polys {
		if p == nil {
			continue
		}
		kind := a.p.GateKind(id)
		if kind != circuit.KindAdd && kind != circuit.KindPerm {
			continue
		}
		for _, m := range p.Monomials() {
			if m.Count > 1 {
				out = append(out, Violation{
					Gate:     id,
					Property: "deterministic",
					Detail:   fmt.Sprintf("monomial %s produced %d times", m.Monomial, m.Count),
				})
				break
			}
		}
	}
	return out
}

// ModelCount evaluates the program in (ℤ, +, ·) with every input set to 1,
// i.e. it counts the monomials of the represented polynomial with
// multiplicity.  For an enumeration circuit this is the number of answers.
func ModelCount(p *circuit.Program) *big.Int {
	one := func(structure.WeightKey) (*big.Int, bool) { return big.NewInt(1), true }
	return circuit.EvaluateProgram[*big.Int](p, semiring.Big, one)
}

// FactorizationReport compares the program against the flat representation
// of the answer set it factorizes.
type FactorizationReport struct {
	// CircuitSize is the number of gates plus wires.
	CircuitSize int
	// Answers is the number of represented monomials (answer tuples).
	Answers *big.Int
	// Arity is the answer arity used to compute the flat size.
	Arity int
	// FlatCells is Answers × Arity: the number of cells of the flat table.
	FlatCells *big.Int
	// CompressionRatio is FlatCells / CircuitSize (0 when the circuit is
	// empty or the answer count does not fit a float64).
	CompressionRatio float64
}

// Factorization measures how compactly the program represents an answer set
// of the given arity.
func Factorization(p *circuit.Program, arity int) FactorizationReport {
	st := p.Stats()
	report := FactorizationReport{
		CircuitSize: st.Gates + st.Edges,
		Answers:     ModelCount(p),
		Arity:       arity,
	}
	report.FlatCells = new(big.Int).Mul(report.Answers, big.NewInt(int64(arity)))
	if report.CircuitSize > 0 {
		cells, _ := new(big.Float).SetInt(report.FlatCells).Float64()
		report.CompressionRatio = cells / float64(report.CircuitSize)
	}
	return report
}

// DOT renders the program in Graphviz dot syntax.  Input gates are labelled
// with their weight key, constants with their value, and permanent gates
// with their matrix dimensions.
func DOT(p *circuit.Program) string {
	var b strings.Builder
	b.WriteString("digraph circuit {\n  rankdir=BT;\n  node [fontname=\"monospace\"];\n")
	for id := 0; id < p.NumGates(); id++ {
		var label, shape string
		switch p.GateKind(id) {
		case circuit.KindInput:
			key := p.InputKey(id)
			label = fmt.Sprintf("%s(%s)", key.Name(), key.Tuple)
			shape = "box"
		case circuit.KindConst:
			label = p.ConstBig(id).String()
			shape = "box"
		case circuit.KindAdd:
			label = "+"
			shape = "circle"
		case circuit.KindMul:
			label = "×"
			shape = "circle"
		case circuit.KindPerm:
			rows, cols := p.PermShape(id)
			label = fmt.Sprintf("perm %d×%d", rows, cols)
			shape = "diamond"
		}
		style := ""
		if id == p.OutputGate() {
			style = ", penwidth=2"
		}
		fmt.Fprintf(&b, "  g%d [label=%q, shape=%s%s];\n", id, label, shape, style)
	}
	for id := 0; id < p.NumGates(); id++ {
		if p.GateKind(id) == circuit.KindPerm {
			p.ForEachPermEntry(id, func(row, col, gate int) {
				fmt.Fprintf(&b, "  g%d -> g%d [label=\"r%dc%d\"];\n", gate, id, row, col)
			})
			continue
		}
		for _, ch := range p.ChildIDs(id) {
			fmt.Fprintf(&b, "  g%d -> g%d;\n", ch, id)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
