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

// walk is one cursor's stack: the root of its nodes, the frame they write
// the current monomial onto, the source they bind gates through and the
// generator table their input nodes read.  steps counts the nodes positioned
// (first) or advanced (next): every slot, factor or column a cursor tries is
// one, so the steps between two answers are Theorem 24's delay.
type walk struct {
	src           source
	p             *circuit.Program
	gens          []Generator
	gate          int
	root          node
	frame         []Generator
	started, done bool
	steps         int
}

// TupleCursor enumerates answer tuples with constant delay.
type TupleCursor struct {
	arity int
	w     walk
}

// newCursor opens a cursor over e's output gate that binds gates through
// src, reading each monomial as a tuple of the given arity.
func newCursor(src source, e *Enumerator, arity int) *TupleCursor {
	return &TupleCursor{arity: arity, w: walk{src: src, p: e.p, gens: e.gens, gate: e.p.OutputGate()}}
}

// Next returns the next answer tuple, or ok=false when the enumeration is
// complete.  The tuple is the caller's: the cursor keeps no reference to it.
func (c *TupleCursor) Next() (structure.Tuple, bool) {
	end, ok := c.w.next()
	if !ok {
		return nil, false
	}
	tuple := make(structure.Tuple, c.arity)
	for _, g := range c.w.frame[:end] {
		tuple[g.Var] = g.Elem
	}
	return tuple, true
}

// put writes g at frame position i (at most one past the end) and returns
// the position after it.
func (w *walk) put(i int, g Generator) int {
	if i == len(w.frame) {
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
		ok = !w.src.GateEmpty(w.gate) && w.root.open(w, w.gate, 0)
	}
	w.started, w.done = true, !ok
	return w.root.end, ok
}

// node is one position of a walk's stack: the gate it is bound to, its
// segment frame[base:end] of the current monomial, and the kind's state — the
// monomial index of an input or constant (an input has one monomial, its
// generator or the empty one), the index of the chosen slot among
// an addition's non-empty ones, the column of every row of a permanent.  kids
// are the positions below: the chosen child of an addition, one per factor of
// a product, the cell of each row of a permanent.  Every slice is reused when
// the node is reset or bound to another gate.
type node struct {
	bound     bool
	gate      int
	kind      circuit.Kind
	base, end int
	i         int
	count     int64 // monomials of an input (1) or a constant
	gen       Generator
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
func (n *node) open(w *walk, gate, base int) bool {
	if !n.bound || n.gate != gate {
		n.bound, n.gate, n.kind = true, gate, w.p.GateKind(gate)
		switch n.kind {
		case circuit.KindInput:
			// A cursor opens only non-empty gates: the input is present.
			n.count, n.gen = 1, w.gens[w.p.InputNumber(gate)]
		case circuit.KindConst:
			v, fits := w.p.ConstInt64(gate)
			if !fits { // constants are non-negative; this many never drains
				v = math.MaxInt64
			}
			n.count = v
		case circuit.KindAdd:
			n.add = w.src.adder(gate)
		case circuit.KindPerm:
			n.perm = w.src.perm(gate)
		}
	}
	return n.first(w, base)
}

// first resets n in place onto its gate's first monomial, written from base.
func (n *node) first(w *walk, base int) bool {
	w.steps++
	n.base, n.end, n.i = base, base, 0
	switch n.kind {
	case circuit.KindInput, circuit.KindConst:
		return n.leaf(w)
	case circuit.KindAdd:
		n.kids = resize(n.kids, 1)
		return n.openSlot(w)
	case circuit.KindMul:
		n.kids = resize(n.kids, len(w.p.ChildIDs(n.gate)))
		return n.fill(w, 0)
	case circuit.KindPerm:
		k := n.perm.rows
		n.rows, n.used, n.kids = resize(n.rows, k), resize(n.used, k), resize(n.kids, k)
		return n.fill(w, 0)
	}
	return false
}

// next advances n to its gate's next monomial, written from n.base.
func (n *node) next(w *walk) bool {
	w.steps++
	switch n.kind {
	case circuit.KindInput, circuit.KindConst:
		n.i++
		return n.leaf(w)
	case circuit.KindAdd:
		if n.kids[0].next(w) {
			n.end = n.kids[0].end
			return true
		}
		n.i++
		return n.openSlot(w)
	case circuit.KindMul:
		// Odometer: advance the last factor that can, reset those after it.
		for i := len(n.kids) - 1; i >= 0; i-- {
			if n.kids[i].next(w) {
				return n.fill(w, i+1)
			}
		}
	case circuit.KindPerm:
		// Advance the deepest row that can — its cell, else its column —
		// and restart the rows below it.
		for r := len(n.rows) - 1; r >= 0; r-- {
			if n.kids[r].next(w) || n.seek(w, r) {
				return n.fill(w, r+1)
			}
		}
	}
	return false
}

// leaf emits monomial n.i of an input or constant gate: an input's
// generator, if it has one, or the empty monomial.
func (n *node) leaf(w *walk) bool {
	n.end = n.base
	if int64(n.i) >= n.count {
		return false
	}
	if n.kind == circuit.KindInput && n.gen.Var >= 0 {
		n.end = w.put(n.base, n.gen)
	}
	return true
}

// openSlot opens the child at the n.i-th non-empty slot of an addition gate
// (or a later one).
func (n *node) openSlot(w *walk) bool {
	kids := w.p.ChildIDs(n.gate)
	for ; n.i < len(n.add.positions); n.i++ {
		if n.kids[0].open(w, int(kids[n.add.positions[n.i]]), n.base) {
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
		if n.kind == circuit.KindMul {
			ok = n.kids[i].open(w, int(w.p.ChildIDs(n.gate)[i]), n.segment(i))
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
func (n *node) segment(i int) int {
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
			if n.kids[r].open(w, m.cell(r, int(col)), n.segment(r)) {
				st.typ, st.at = t, i
				return true
			}
		}
	}
	return false
}
