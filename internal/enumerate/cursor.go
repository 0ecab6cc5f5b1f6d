package enumerate

import (
	"math"
	"slices"

	"repro/internal/circuit"
	"repro/internal/structure"
)

// source is what a cursor binds gates through besides the Program: the live
// Enumerator, or a Snapshot resolving its pinned epoch.  The node machinery
// below is otherwise oblivious to which epoch it streams.
type source interface {
	GateEmpty(id int) bool
	adder(id int) *adderMeta
	perm(id int) *permGateMeta
}

func (e *Enumerator) adder(id int) *adderMeta   { return &e.adders[e.meta[id]] }
func (e *Enumerator) perm(id int) *permGateMeta { return &e.perms[e.meta[id]] }

// walk is one cursor's stack over the output gate of p: the root of its
// nodes, the frame they write the current monomial onto, the source they
// bind gates through and the generator table their input nodes read.  steps
// counts the nodes positioned (open) or advanced (next): every slot, factor
// or column a cursor tries is one, so the steps between two answers are
// Theorem 24's delay.
type walk struct {
	src           source
	p             *circuit.Program
	gens          []Generator
	root          node
	frame         []Generator
	started, done bool
	steps         int
}

// TupleCursor enumerates answer tuples with constant delay.
type TupleCursor struct {
	arity int
	chunk int                 // answers the last chunk held
	buf   []structure.Element // what is left of it; tuples are carved from its front
	w     walk
}

// maxChunk is the most answers one chunk of a cursor holds.  Chunks double
// from one answer up to it, so a cursor that yields one answer allocates one
// tuple, and a long stream one chunk per 64 answers.
const maxChunk = 64

// newCursor opens a cursor over e's output gate that binds gates through
// src, reading each monomial as a tuple of the given arity.
func newCursor(src source, e *Enumerator, arity int) *TupleCursor {
	return &TupleCursor{arity: arity, w: walk{src: src, p: e.p, gens: e.gens}}
}

// Next returns the next answer tuple, or ok=false when the enumeration is
// complete.  The tuple is the caller's: it is carved from a per-cursor chunk
// that is never written again, and its capacity ends where its length does,
// so neither the cursor nor an append to it can change another answer.
func (c *TupleCursor) Next() (structure.Tuple, bool) {
	end, ok := c.w.next()
	if !ok {
		return nil, false
	}
	if c.buf == nil || len(c.buf) < c.arity { // nil on the first answer, even at arity 0
		c.chunk = min(max(2*c.chunk, 1), maxChunk)
		c.buf = make([]structure.Element, c.chunk*c.arity)
	}
	tuple := structure.Tuple(c.buf[:c.arity:c.arity])
	c.buf = c.buf[c.arity:]
	for _, g := range c.w.frame[:end] {
		tuple[g.Var] = g.Elem
	}
	return tuple, true
}

// put writes g at frame position i (at most one past the end) and returns
// the position after it.
func (w *walk) put(i int32, g Generator) int32 {
	if int(i) == len(w.frame) {
		w.frame = append(w.frame, g)
	} else {
		w.frame[i] = g
	}
	return i + 1
}

// next advances the walk to its next monomial, frame[:end], or reports
// ok=false once it is exhausted.
func (w *walk) next() (end int, ok bool) {
	switch {
	case w.done:
		return 0, false
	case w.started:
		ok = w.root.next(w)
	default:
		out := w.p.OutputGate()
		ok = !w.src.GateEmpty(out) && w.root.open(w, int32(out), 0)
	}
	w.started, w.done = true, !ok
	return int(w.root.end), ok
}

// node is one position of a walk's stack: the gate it is bound to, its
// segment frame[base:end] of the current monomial, and the kind's state — the
// monomial index of an input or constant (an input has one monomial, its
// generator or the empty one), the index of the chosen slot among
// an addition's non-empty ones, the column of every row of a permanent.  kids
// are the positions below: the chosen child of an addition, one per factor of
// a product, the cell of each row of a permanent.  Every slice is reused when
// the node is reset or bound to another gate.  The kind is a byte, and gate
// ids and frame positions are 32-bit, as the Program's operand lists are, so
// a node takes 160 bytes: every cursor allocates its stack afresh, and a
// Searcher opens one per improvement.
type node struct {
	bound     bool
	kind      uint8 // a circuit.Kind
	single    bool  // the gate has one monomial: an input, or the constant 1
	gate      int32
	base, end int32
	i         int
	count     int64 // monomials of an input (1) or a constant
	gen       Generator
	children  []int32 // an addition's or a product's operands, read on binding
	add       *adderMeta
	perm      *permGateMeta
	rows      []permRow
	used      []int32 // used[r] is the column of row r
	kids      []node
}

// permRow is where one row of a permanent node stands: the type of its
// column and the column's index in the type-sorted column list.
type permRow struct{ typ, at int32 }

// resize returns s with length k, reusing its storage when it is big enough.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// open binds n to gate, unless it is bound there already, and positions it
// on the gate's first monomial, written from base.
func (n *node) open(w *walk, gate, base int32) bool {
	if !n.bound || n.gate != gate {
		n.bind(w, gate)
	}
	w.steps++
	n.base, n.end, n.i = base, base, 0
	switch circuit.Kind(n.kind) {
	case circuit.KindInput, circuit.KindConst:
		return n.leaf(w)
	case circuit.KindAdd:
		n.kids = resize(n.kids, 1)
		return n.openSlot(w)
	case circuit.KindMul:
		n.kids = resize(n.kids, len(n.children))
		return n.fill(w, 0)
	case circuit.KindPerm:
		k := n.perm.rows
		n.rows, n.used, n.kids = resize(n.rows, k), resize(n.used, k), resize(n.kids, k)
		return n.fill(w, 0)
	}
	return false
}

// bind points n at gate and reads what its kind needs: an input's
// generator, a constant's count, the operands of an addition or a product
// and the slot or column bookkeeping the source keeps for it.
func (n *node) bind(w *walk, gate int32) {
	id := int(gate)
	n.bound, n.gate, n.kind, n.single = true, gate, uint8(w.p.GateKind(id)), false
	switch circuit.Kind(n.kind) {
	case circuit.KindInput:
		// A cursor opens only non-empty gates: the input is present.
		n.count, n.gen, n.single = 1, w.gens[w.p.InputNumber(id)], true
	case circuit.KindConst:
		v, fits := w.p.ConstInt64(id)
		if !fits { // constants are non-negative; this many never drains
			v = math.MaxInt64
		}
		n.count, n.single = v, v == 1
	case circuit.KindAdd:
		n.children, n.add = w.p.ChildIDs(id), w.src.adder(id)
	case circuit.KindMul:
		n.children = w.p.ChildIDs(id)
	case circuit.KindPerm:
		n.perm = w.src.perm(id)
	}
}

// next advances n to its gate's next monomial, written from n.base.
func (n *node) next(w *walk) bool {
	w.steps++
	switch circuit.Kind(n.kind) {
	case circuit.KindInput, circuit.KindConst:
		n.i++
		return n.leaf(w)
	case circuit.KindAdd:
		if n.kids[0].advance(w) {
			n.end = n.kids[0].end
			return true
		}
		n.i++
		return n.openSlot(w)
	case circuit.KindMul:
		// Odometer: advance the last factor that can, reset those after it.
		for i := len(n.kids) - 1; i >= 0; i-- {
			if n.kids[i].advance(w) {
				return n.fill(w, i+1)
			}
		}
	case circuit.KindPerm:
		// Advance the deepest row that can — its cell, else its column —
		// and restart the rows below it.
		for r := len(n.rows) - 1; r >= 0; r-- {
			if n.kids[r].advance(w) || n.seek(w, r) {
				return n.fill(w, r+1)
			}
		}
	}
	return false
}

// advance is next for a kid, except that a kid with one monomial cannot
// advance and takes no step trying.
func (n *node) advance(w *walk) bool {
	return !n.single && n.next(w)
}

// leaf emits monomial n.i of an input or constant gate: an input's
// generator, if it has one, or the empty monomial.
func (n *node) leaf(w *walk) bool {
	n.end = n.base
	if int64(n.i) >= n.count {
		return false
	}
	if circuit.Kind(n.kind) == circuit.KindInput && n.gen.Var >= 0 {
		n.end = w.put(n.base, n.gen)
	}
	return true
}

// openSlot opens the child at the n.i-th non-empty slot of an addition gate
// (or a later one).
func (n *node) openSlot(w *walk) bool {
	for ; n.i < len(n.add.positions); n.i++ {
		if n.kids[0].open(w, n.children[n.add.positions[n.i]], n.base) {
			n.end = n.kids[0].end
			return true
		}
	}
	return false
}

// fill (re)opens the kids of a product or the rows of a permanent from
// index from on, each segment starting where the one before it ends.
func (n *node) fill(w *walk, from int) bool {
	for i := from; i < len(n.kids); i++ {
		ok := false
		if circuit.Kind(n.kind) == circuit.KindMul {
			ok = n.kids[i].open(w, n.children[i], n.segment(i))
		} else {
			n.rows[i] = permRow{at: -1}
			ok = n.seek(w, i)
		}
		if !ok {
			return false
		}
	}
	n.end = n.segment(len(n.kids))
	return true
}

// segment returns where kid i's segment starts: where kid i-1's ends.
func (n *node) segment(i int) int32 {
	if i == 0 {
		return n.base
	}
	return n.kids[i-1].end
}

// seek moves row r of a permanent to its next column that is wired at r,
// unused by the rows above, and keeps the rows below matchable, and opens
// the cell there.  Columns of one type are interchangeable for
// matchability, so a type that fails the test is skipped whole.
func (n *node) seek(w *walk, r int) bool {
	m, st := n.perm, &n.rows[r]
	below := (1<<m.rows - 1) &^ (1<<(r+1) - 1)
	for t := st.typ; int(t) < len(m.start)-1; t++ {
		if t&(1<<r) == 0 {
			continue
		}
		for i := max(st.at+1, m.start[t]); i < m.start[t+1]; i++ {
			col := m.list[i]
			if slices.Contains(n.used[:r], col) {
				continue
			}
			n.used[r] = col
			if !m.matchable(below, n.used[:r+1]) {
				break
			}
			if n.kids[r].open(w, int32(m.cell(r, int(col))), n.segment(r)) {
				st.typ, st.at = t, i
				return true
			}
		}
	}
	return false
}
