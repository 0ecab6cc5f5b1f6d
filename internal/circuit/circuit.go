// Package circuit implements circuits over semirings with permanent gates:
// the target representation of the compiler (Theorem 6 of the paper) and
// the data structure on which all evaluation, maintenance and enumeration
// results are built.
//
// A circuit is a directed acyclic graph of gates.  Gate kinds follow
// Section 3 of the paper: input gates (one per weight input (w, a) of the
// database), constant gates (natural numbers, interpreted as n-fold sums of
// the semiring unit, which keeps circuits semiring-agnostic), addition
// gates of arbitrary fan-in, multiplication gates, and permanent gates whose
// inputs form a rectangular matrix with a bounded number of rows.
//
// A Circuit only grows gates; it has no evaluators.  Freeze it into a Program
// (program.go), the one executable form: the same Program can be evaluated in
// any semiring (program_eval.go) and maintained under input updates
// (dynamic.go).
package circuit

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/structure"
)

// Kind enumerates gate kinds.
type Kind int

// Gate kinds.
const (
	KindInput Kind = iota
	KindConst
	KindAdd
	KindMul
	KindPerm
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindConst:
		return "const"
	case KindAdd:
		return "add"
	case KindMul:
		return "mul"
	case KindPerm:
		return "perm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PermEntry wires a child gate into position (Row, Col) of a permanent
// gate's matrix.  Positions that are not wired are implicitly the semiring
// zero.
type PermEntry struct {
	Row, Col int
	Gate     int
}

// Gate is a single circuit gate.  Exactly the fields relevant to its Kind
// are populated.
type Gate struct {
	Kind Kind

	// Key identifies the weight input (w, a) for input gates.
	Key structure.WeightKey

	// N is the constant value for constant gates, interpreted as N·1.
	N *big.Int

	// Children are the operand gates of addition and multiplication gates.
	Children []int

	// Rows, Cols and Entries describe the matrix of a permanent gate.
	Rows, Cols int
	Entries    []PermEntry
}

// Circuit is a directed acyclic circuit under construction.  Gates are
// stored in topological order: every child index is smaller than its
// parent's index.  Once built, freeze it with Program (memoised) to obtain
// the flat execution form shared by all engines.
type Circuit struct {
	Gates  []Gate
	Output int

	inputIndex map[structure.WeightKey]int
	constIndex map[string]int
	zeroGate   int
	oneGate    int

	progMu sync.Mutex
	prog   *Program
}

// NewBuilder returns an empty circuit under construction, pre-seeded with
// constant gates for 0 and 1.
func NewBuilder() *Circuit {
	c := &Circuit{inputIndex: make(map[structure.WeightKey]int), Output: -1}
	c.zeroGate = c.addGate(Gate{Kind: KindConst, N: big.NewInt(0)})
	c.oneGate = c.addGate(Gate{Kind: KindConst, N: big.NewInt(1)})
	return c
}

// Program returns the frozen CSR form of the circuit, freezing on first use
// and re-freezing when gates were added since.  It is safe for concurrent
// use once construction has finished; the returned Program is immutable and
// shared, so concurrent evaluations, dynamic sessions and enumerators all
// borrow one artefact.
func (c *Circuit) Program() *Program {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	if c.prog == nil || c.prog.numGates != len(c.Gates) || c.prog.output != c.Output {
		c.prog = Freeze(c)
	}
	return c.prog
}

func (c *Circuit) addGate(g Gate) int {
	c.Gates = append(c.Gates, g)
	return len(c.Gates) - 1
}

// Zero returns the constant-0 gate.
func (c *Circuit) Zero() int { return c.zeroGate }

// One returns the constant-1 gate.
func (c *Circuit) One() int { return c.oneGate }

// Input returns the input gate for the weight key, creating it on first
// use so that each weight input appears exactly once.
func (c *Circuit) Input(key structure.WeightKey) int {
	if id, ok := c.inputIndex[key]; ok {
		return id
	}
	id := c.addGate(Gate{Kind: KindInput, Key: key})
	c.inputIndex[key] = id
	return id
}

// InputGate returns the gate id of an existing input, or -1.
func (c *Circuit) InputGate(key structure.WeightKey) int {
	if id, ok := c.inputIndex[key]; ok {
		return id
	}
	return -1
}

// Inputs returns a copy of the map from weight keys to input gate ids; the
// circuit's internal index stays private, so callers cannot corrupt it.
func (c *Circuit) Inputs() map[structure.WeightKey]int {
	out := make(map[structure.WeightKey]int, len(c.inputIndex))
	for k, v := range c.inputIndex {
		out[k] = v
	}
	return out
}

// Const returns a constant gate with value n ≥ 0.  Constants are interned:
// requesting the same value again returns the existing gate instead of
// growing the circuit.
func (c *Circuit) Const(n *big.Int) int {
	if n.Sign() < 0 {
		panic("circuit: negative constants are not representable in a general semiring")
	}
	if n.Sign() == 0 {
		return c.zeroGate
	}
	if n.Cmp(big.NewInt(1)) == 0 {
		return c.oneGate
	}
	key := n.String()
	if id, ok := c.constIndex[key]; ok {
		return id
	}
	id := c.addGate(Gate{Kind: KindConst, N: new(big.Int).Set(n)})
	if c.constIndex == nil {
		c.constIndex = make(map[string]int)
	}
	c.constIndex[key] = id
	return id
}

// ConstInt returns a constant gate with a small value.
func (c *Circuit) ConstInt(n int64) int { return c.Const(big.NewInt(n)) }

// Add returns a gate computing the sum of the children.  Zero children are
// dropped; an empty sum is the constant 0; a single surviving child is
// returned as-is, and neither case allocates.
func (c *Circuit) Add(children ...int) int {
	survivors, last := 0, c.zeroGate
	for _, ch := range children {
		c.checkChild(ch)
		if ch != c.zeroGate {
			survivors++
			last = ch
		}
	}
	if survivors <= 1 {
		return last
	}
	kept := make([]int, 0, survivors)
	for _, ch := range children {
		if ch != c.zeroGate {
			kept = append(kept, ch)
		}
	}
	return c.addGate(Gate{Kind: KindAdd, Children: kept})
}

// Mul returns a gate computing the product of the children.  Unit children
// are dropped; a zero child makes the whole product the constant 0; an
// empty product is the constant 1.
func (c *Circuit) Mul(children ...int) int {
	kept := make([]int, 0, len(children))
	for _, ch := range children {
		c.checkChild(ch)
		if ch == c.zeroGate {
			return c.zeroGate
		}
		if ch == c.oneGate {
			continue
		}
		kept = append(kept, ch)
	}
	switch len(kept) {
	case 0:
		return c.oneGate
	case 1:
		return kept[0]
	}
	return c.addGate(Gate{Kind: KindMul, Children: kept})
}

// Perm returns a permanent gate over a rows×cols matrix whose wired entries
// are given; missing entries are the semiring zero.
func (c *Circuit) Perm(rows, cols int, entries []PermEntry) int {
	for _, e := range entries {
		c.checkChild(e.Gate)
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("circuit: permanent entry (%d,%d) outside %d×%d", e.Row, e.Col, rows, cols))
		}
	}
	if rows == 0 {
		return c.oneGate
	}
	if cols < rows {
		// Fewer columns than rows: no injective assignment exists.
		return c.zeroGate
	}
	return c.addGate(Gate{Kind: KindPerm, Rows: rows, Cols: cols, Entries: entries})
}

func (c *Circuit) checkChild(ch int) {
	if ch < 0 || ch >= len(c.Gates) {
		panic(fmt.Sprintf("circuit: child gate %d out of range", ch))
	}
}

// SetOutput marks the output gate.
func (c *Circuit) SetOutput(id int) {
	c.checkChild(id)
	c.Output = id
}

// NumGates returns the number of gates.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumEdges returns the number of wires.
func (c *Circuit) NumEdges() int {
	edges := 0
	for _, g := range c.Gates {
		edges += len(g.Children) + len(g.Entries)
	}
	return edges
}

// Size returns gates plus wires, the paper's notion of circuit size.
func (c *Circuit) Size() int { return c.NumGates() + c.NumEdges() }

// Stats summarises the structural parameters that Theorem 6 bounds.
type Stats struct {
	Gates       int
	Edges       int
	Depth       int
	MaxFanIn    int
	MaxFanOut   int
	MaxPermRows int
	PermGates   int
	InputGates  int
}

// Statistics computes the structural statistics of the circuit.
func (c *Circuit) Statistics() Stats {
	st := Stats{Gates: len(c.Gates)}
	depth := make([]int, len(c.Gates))
	fanOut := make([]int, len(c.Gates))
	for id, g := range c.Gates {
		children := c.children(id)
		st.Edges += len(children)
		if len(children) > st.MaxFanIn {
			st.MaxFanIn = len(children)
		}
		d := 0
		for _, ch := range children {
			fanOut[ch]++
			if depth[ch]+1 > d {
				d = depth[ch] + 1
			}
		}
		depth[id] = d
		if d > st.Depth {
			st.Depth = d
		}
		switch g.Kind {
		case KindPerm:
			st.PermGates++
			if g.Rows > st.MaxPermRows {
				st.MaxPermRows = g.Rows
			}
		case KindInput:
			st.InputGates++
		}
	}
	for _, f := range fanOut {
		if f > st.MaxFanOut {
			st.MaxFanOut = f
		}
	}
	return st
}

func (c *Circuit) children(id int) []int {
	g := c.Gates[id]
	if g.Kind == KindPerm {
		out := make([]int, len(g.Entries))
		for i, e := range g.Entries {
			out[i] = e.Gate
		}
		return out
	}
	return g.Children
}

// Valuation supplies the value of each weight input; inputs for which ok is
// false take the semiring zero.
type Valuation[T any] func(key structure.WeightKey) (value T, ok bool)

// String renders a compact description of the circuit for diagnostics.
func (c *Circuit) String() string {
	st := c.Statistics()
	return fmt.Sprintf("circuit{gates=%d edges=%d depth=%d permGates=%d maxPermRows=%d inputs=%d}",
		st.Gates, st.Edges, st.Depth, st.PermGates, st.MaxPermRows, st.InputGates)
}
