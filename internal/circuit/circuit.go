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
// A Circuit is the builder: it appends each gate straight into the arenas a
// Program reads (program.go) and has no evaluators.  It builds every gate
// once: asked for a gate it already has, it returns the existing one, so
// every parent of a shared subexpression wires the same gate.  Freezing it
// into a Program adds only what needs the finished circuit, the wires and the
// level schedule; the same Program can be evaluated in any semiring
// (program_eval.go) and maintained under input updates (dynamic.go).
package circuit

import (
	"fmt"
	"math"
	"math/big"
	"slices"
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

// Circuit is a directed acyclic circuit under construction.  A gate is
// appended only after its children, so every child id is smaller than its
// parent's and ids are a topological order.  Every gate is interned: no two
// gates share a kind and operands — an input its symbol, role and tuple, a
// constant its value, a sum or product its multiset of operands, a permanent
// its shape and cells.  Once built, freeze it with Program (memoised) to
// obtain the form shared by all engines.
type Circuit struct {
	// Output is the output gate, -1 until SetOutput.
	Output int

	// The gates as a Program lays them out, grown one gate at a time.
	arenas

	constIndex map[string]int // constant value → its gate
	zeroGate   int
	oneGate    int
	// unique finds the sums, products and permanents already built; it is
	// builder state, dropped at freeze and rebuilt by the next such gate.
	unique unique
	// frozenInputs is set while a frozen Program shares the input index: the
	// next new input copies it before writing to it.
	frozenInputs bool

	progMu sync.Mutex
	prog   *Program
}

// NewBuilder returns an empty circuit under construction, pre-seeded with
// constant gates for 0 and 1.
func NewBuilder() *Circuit {
	c := &Circuit{Output: -1, constIndex: map[string]int{}}
	c.childStart = []int32{0}
	c.zeroGate = c.newConst(big.NewInt(0))
	c.oneGate = c.newConst(big.NewInt(1))
	return c
}

// Program returns the circuit frozen into a Program, freezing on first use
// and again when gates were added since.  It is safe for concurrent use once
// construction has finished; the returned Program is immutable and shared,
// so concurrent evaluations, dynamic sessions and enumerators all borrow one
// artefact.
func (c *Circuit) Program() *Program {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	if c.prog == nil || c.prog.numGates != c.NumGates() || c.prog.output != c.Output {
		c.prog = c.freeze()
	}
	return c.prog
}

// appendGate appends a gate of kind k with payload index arg, whose operands
// are the children appended since the previous gate, and returns its id.  Its
// rank is one above its highest operand's.
func (c *Circuit) appendGate(k Kind, arg int) int {
	id := len(c.kind)
	if id >= math.MaxInt32 || len(c.children) > math.MaxInt32 {
		panic("circuit: too many gates or wires for int32 ids")
	}
	var r int32
	for _, ch := range c.children[c.childStart[id]:] {
		r = max(r, c.rank[ch]+1)
	}
	c.kind = append(c.kind, uint8(k))
	c.arg = append(c.arg, int32(arg))
	c.rank = append(c.rank, r)
	c.childStart = append(c.childStart, int32(len(c.children)))
	c.maxRank = max(c.maxRank, int(r))
	return id
}

// Zero returns the constant-0 gate.
func (c *Circuit) Zero() int { return c.zeroGate }

// One returns the constant-1 gate.
func (c *Circuit) One() int { return c.oneGate }

// Input returns the input gate of symbol sym, in the given role, at a copy of
// tuple t, creating it on first use so that each input appears exactly once;
// finding an existing input allocates nothing.
func (c *Circuit) Input(sym string, role structure.Role, t structure.Tuple) int {
	s := slices.Index(c.inputSyms, sym)
	if s < 0 {
		s, c.inputSyms = len(c.inputSyms), append(c.inputSyms, sym)
	} else if n := c.inputs.Find(inputHead(s, role), t); n >= 0 {
		return int(c.inputGates[n])
	}
	if c.frozenInputs {
		c.inputs, c.frozenInputs = c.inputs.Clone(), false
	}
	id := c.appendGate(KindInput, c.inputs.Len())
	c.inputs.Add(inputHead(s, role), t)
	c.inputGates = append(c.inputGates, int32(id))
	return id
}

// Const returns a constant gate with value n ≥ 0.  Like every gate it is
// interned: requesting the same value again returns the existing gate
// instead of growing the circuit.
func (c *Circuit) Const(n *big.Int) int {
	if n.Sign() < 0 {
		panic("circuit: negative constants are not representable in a general semiring")
	}
	if id, ok := c.constIndex[n.String()]; ok {
		return id
	}
	return c.newConst(n)
}

func (c *Circuit) newConst(n *big.Int) int {
	if n.IsInt64() {
		c.constSmall = append(c.constSmall, n.Int64())
		c.constBig = append(c.constBig, nil)
	} else {
		c.constSmall = append(c.constSmall, 0)
		c.constBig = append(c.constBig, new(big.Int).Set(n))
	}
	id := c.appendGate(KindConst, len(c.constSmall)-1)
	c.constIndex[n.String()] = id
	return id
}

// ConstInt returns a constant gate with a small value.
func (c *Circuit) ConstInt(n int64) int { return c.Const(big.NewInt(n)) }

// Add returns a gate computing the sum of the children.  Zero children are
// dropped; an empty sum is the constant 0, and a single surviving child is
// returned as-is.  Like every gate it is interned: a sum of the same multiset
// of children, in any order, returns the existing gate, and finding it
// allocates nothing.
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
	for _, ch := range children {
		if ch != c.zeroGate {
			c.children = append(c.children, int32(ch))
		}
	}
	return c.intern(KindAdd, -1)
}

// Mul returns a gate computing the product of the children.  Unit children
// are dropped; a zero child makes the whole product the constant 0; an
// empty product is the constant 1, and a single remaining child is returned
// as-is.  Like every gate it is interned: a product of the same multiset of
// children, in any order, returns the existing gate, and finding it
// allocates nothing.
func (c *Circuit) Mul(children ...int) int {
	kept, last := 0, c.oneGate
	for _, ch := range children {
		c.checkChild(ch)
		if ch == c.zeroGate {
			return c.zeroGate
		}
		if ch != c.oneGate {
			kept++
			last = ch
		}
	}
	if kept <= 1 {
		return last
	}
	for _, ch := range children {
		if ch != c.oneGate {
			c.children = append(c.children, int32(ch))
		}
	}
	return c.intern(KindMul, -1)
}

// Perm returns a permanent gate over a rows×cols matrix whose wired entries
// are given; missing entries are the semiring zero.  The entries are copied,
// so the caller may reuse the slice.  Like every gate it is interned: a
// permanent of the same shape over the same cells, given in any order,
// returns the existing gate, and finding it allocates nothing.
//
// The gate's slots are its entries in column-major order (stable within a
// column), so evaluation runs the column dynamic program straight off the
// arenas, and the counting sort's offsets stay behind as the column index.
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
	off, entOff, colOff := len(c.children), len(c.permRows), len(c.permColStart)
	c.perms = append(c.perms, permProgram{rows: int32(rows), cols: int32(cols), entOff: int32(entOff), colOff: int32(colOff)})
	c.permColStart = append(c.permColStart, make([]int32, cols+1)...)
	place := c.permColStart[colOff:]
	for _, e := range entries {
		place[e.Col+1]++
	}
	for col := 0; col < cols; col++ {
		place[col+1] += place[col]
	}
	c.children = append(c.children, make([]int32, len(entries))...)
	c.permRows = append(c.permRows, make([]int32, len(entries))...)
	c.permCols = append(c.permCols, make([]int32, len(entries))...)
	for _, e := range entries {
		i := int(place[e.Col])
		place[e.Col]++
		c.children[off+i] = int32(e.Gate)
		c.permRows[entOff+i] = int32(e.Row)
		c.permCols[entOff+i] = int32(e.Col)
	}
	// Placing advanced every column's offset to the next column's.
	copy(place[1:], place[:cols])
	place[0] = 0
	return c.intern(KindPerm, len(c.perms)-1)
}

func (c *Circuit) checkChild(ch int) {
	if ch < 0 || ch >= c.NumGates() {
		panic(fmt.Sprintf("circuit: child gate %d out of range", ch))
	}
}

// SetOutput marks the output gate.
func (c *Circuit) SetOutput(id int) {
	c.checkChild(id)
	c.Output = id
}

// NumGates returns the number of gates.
func (c *Circuit) NumGates() int { return len(c.kind) }

// Input is a circuit input (w, ā) as the engine holds it: its gate, the weight
// symbol w — or, by the Role, the relation of a Lemma 40 membership input —
// and the tuple ā, a view into the Program's arena that must not be modified.
type Input struct {
	Gate   int
	Symbol string
	Role   structure.Role
	Tuple  structure.Tuple
}

// Valuation supplies the value of each input; inputs for which ok is false
// take the semiring zero.
type Valuation[T any] func(in Input) (value T, ok bool)
