// Package enumerate implements the iterator side of the paper: evaluation of
// compiled circuits in the free (provenance) semiring where every value is
// represented by a constant-delay enumerator (Theorem 22), and on top of it
// constant-delay enumeration of the answers to first-order queries with
// Gaifman-preserving updates (Theorem 24).
//
// After a linear-time preprocessing pass over the circuit, the enumerator
// for any gate — in particular the output gate — can be (re)created in
// constant time and produces the monomials of the gate's free-semiring value
// with constant delay between consecutive outputs.  Permanent gates use the
// column-type bookkeeping of Lemma 39 so that only columns that can still be
// extended to a full system of distinct representatives are ever touched.
package enumerate

import (
	"context"
	"fmt"
	"math/big"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/mvcc"
	"repro/internal/provenance"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Value is the free-semiring value of a circuit input, given by its
// emptiness and the ability to enumerate its monomials.  Implementations must
// be comparable with ==: assigning an input the value it already holds is a
// no-op that commits no epoch.
type Value interface {
	// Empty reports whether the value is the zero polynomial.
	Empty() bool
	// Cursor returns a fresh enumerator over the monomials of the value.
	Cursor() Cursor
}

// Cursor enumerates monomials of a free-semiring element.  Next returns the
// next monomial, or ok=false when exhausted.
type Cursor interface {
	Next() (provenance.Monomial, bool)
}

// ---------------------------------------------------------------------------
// Input values
// ---------------------------------------------------------------------------

// Zero is the empty (zero) value.
func Zero() Value { return zeroValue{} }

// One is the unit value: a single empty monomial.
func One() Value { return unitValue{} }

// Gen is the value consisting of a single generator.
func Gen(g provenance.Generator) Value { return genValue{g: g} }

// Bool returns One() for true and Zero() for false; it is the value of the
// 0/1 relation-membership inputs of Lemma 40.
func Bool(b bool) Value {
	if b {
		return One()
	}
	return Zero()
}

// FromPoly wraps an explicit polynomial as an input value.
func FromPoly(p *provenance.Poly) Value { return polyValue{p: p} }

type zeroValue struct{}

func (zeroValue) Empty() bool    { return true }
func (zeroValue) Cursor() Cursor { return &sliceCursor{} }

type unitValue struct{}

func (unitValue) Empty() bool { return false }
func (unitValue) Cursor() Cursor {
	return &sliceCursor{items: []provenance.Monomial{provenance.NewMonomial()}}
}

type genValue struct{ g provenance.Generator }

func (v genValue) Empty() bool { return false }
func (v genValue) Cursor() Cursor {
	return &sliceCursor{items: []provenance.Monomial{provenance.NewMonomial(v.g)}}
}

type polyValue struct{ p *provenance.Poly }

func (v polyValue) Empty() bool { return v.p.IsZero() }
func (v polyValue) Cursor() Cursor {
	var items []provenance.Monomial
	for _, t := range v.p.Monomials() {
		for i := int64(0); i < t.Count; i++ {
			items = append(items, t.Monomial)
		}
	}
	return &sliceCursor{items: items}
}

// sliceCursor enumerates a fixed slice of monomials.
type sliceCursor struct {
	items []provenance.Monomial
	pos   int
}

func (c *sliceCursor) Next() (provenance.Monomial, bool) {
	if c.pos >= len(c.items) {
		return nil, false
	}
	m := c.items[c.pos]
	c.pos++
	return m, true
}

// ---------------------------------------------------------------------------
// Enumerator over a circuit
// ---------------------------------------------------------------------------

// Enumerator evaluates a circuit in the free semiring with iterator
// representation: after linear preprocessing it provides constant-delay
// cursors for the output gate and supports input updates in constant time
// per affected gate (the circuits produced by the compiler have bounded
// depth and fan-out, hence bounded reach-out).
//
// The enumerator runs on the circuit's frozen Program and borrows its
// topological ranks, wires, children arena and permanent columns instead of
// rebuilding them: many enumerators may share one Program, each holding values
// only — input values, emptiness bits, and per addition or permanent gate the
// non-empty slots and column types, addressed by the Program's slots.
//
// # Goroutine safety
//
// The state is versioned by one mvcc.Clock, its own or the one it shares with
// the other engine state of a session: a mutation holds it exclusively from
// its first leaf assignment through its wave to its commit — one epoch, iff
// it changed something — and a snapshot resolves an epoch pinned on it under
// the shared lock, rolling dirtied slots back through the undo entries the
// wave logs while anything is pinned.  So any number of snapshots, one per
// reading goroutine, run concurrently with each other and with mutations.
// The live reads Empty, GateEmpty and Cursor take no lock — a live cursor is a
// constant-delay pointer walk — so they may only run between mutations, on
// the goroutine that mutates.
type Enumerator struct {
	p *circuit.Program

	// log is this state's undo history on clock: per committed epoch, the
	// pre-change input values and emptiness bits that pinned snapshots roll
	// back through.
	clock *mvcc.Clock
	log   *mvcc.Log[enumUndo]

	// inputValue[p.InputNumber(id)] is the value of input gate id.
	inputValue []Value
	empty      []bool

	adders []*adderMeta
	perms  []*permGateMeta

	// wave queues the parents of gates whose emptiness flipped and drains
	// them in increasing rank order, so every affected gate is refreshed
	// exactly once per update batch.  refresh and isEmpty are refreshWave and
	// the live emptiness view, bound once so a wave allocates nothing.
	wave    *circuit.Worklist
	refresh func(g int, slots []int32)
	isEmpty func(gate int) bool
}

// enumUndo is one undo-log entry: the pre-change state of a gate within one
// committed transition.  Input gates record their old value and emptiness;
// interior gates record only the emptiness bit (their cursors re-derive
// everything else from children emptiness).
type enumUndo struct {
	gate     int32
	kind     uint8 // undoInput or undoEmpty
	oldEmpty bool
	oldInput Value
}

const (
	undoInput = uint8(iota)
	undoEmpty
)

func (u enumUndo) Slot() int32 { return u.gate }

// InputAssignment pairs a weight input with its new value for SetInputs.
type InputAssignment struct {
	Key   structure.WeightKey
	Value Value
}

// adderMeta maintains, for an addition gate, the slots whose child is
// currently non-empty.
type adderMeta struct {
	positions []int32 // slots with non-empty children
	index     []int32 // slot → index in positions, -1 when absent
}

// newAdderMeta derives the metadata a cursor reads for an addition gate over
// children, under the given emptiness view (the live bits for the writer, the
// pinned epoch's for a snapshot).
func newAdderMeta(children []int32, empty func(gate int) bool) *adderMeta {
	meta := &adderMeta{index: make([]int32, len(children))}
	for slot, ch := range children {
		if empty(int(ch)) {
			meta.index[slot] = -1
			continue
		}
		meta.index[slot] = int32(len(meta.positions))
		meta.positions = append(meta.positions, int32(slot))
	}
	return meta
}

// permGateMeta maintains the Lemma 39 bookkeeping of permanent gate id of p,
// whose cells and columns it reads off the Program.
type permGateMeta struct {
	p    *circuit.Program
	id   int
	rows int
	// colType[col] is the bitmask of rows whose wired child is non-empty.
	colType []int
	// byType[t] lists the columns of type t; posInType[col] is the column's
	// index within its list (for O(1) removal).
	byType    [][]int
	posInType []int
}

// newPermGateMeta derives the Lemma 39 column-type bookkeeping of permanent
// gate id under the given emptiness view (the live bits for the writer, the
// pinned epoch's for a snapshot).
func newPermGateMeta(p *circuit.Program, id int, empty func(gate int) bool) *permGateMeta {
	rows, cols := p.PermShape(id)
	meta := &permGateMeta{
		p: p, id: id, rows: rows,
		colType:   make([]int, cols),
		byType:    make([][]int, 1<<uint(rows)),
		posInType: make([]int, cols),
	}
	for col := 0; col < cols; col++ {
		t := meta.columnType(col, empty)
		meta.colType[col] = t
		meta.posInType[col] = len(meta.byType[t])
		meta.byType[t] = append(meta.byType[t], col)
	}
	return meta
}

// columnType returns the bitmask of the rows of col whose wired child is
// non-empty under the given emptiness view.
func (m *permGateMeta) columnType(col int, empty func(gate int) bool) int {
	rows, gates := m.p.PermColumn(m.id, col)
	t := 0
	for i, ch := range gates {
		if !empty(int(ch)) {
			t |= 1 << uint(rows[i])
		}
	}
	return t
}

// cell returns the child gate wired at (row, col), or -1.
func (m *permGateMeta) cell(row, col int) int {
	rows, gates := m.p.PermColumn(m.id, col)
	for i, r := range rows {
		if int(r) == row {
			return int(gates[i])
		}
	}
	return -1
}

// Nonempty computes the initial non-emptiness of every gate with the
// level-parallel circuit engine (on workers goroutines; ≤ 0 selects
// GOMAXPROCS), for NewProgram to skip its own per-gate emptiness work: a
// gate's value is non-empty exactly when the circuit, with every input mapped
// to the truth of "this input is non-empty", evaluates to true at that gate in
// the boolean semiring (for permanent gates the boolean permanent is the
// existence of a system of distinct representatives, which is Lemma 39's
// matchability test).  inputs is called from multiple goroutines and must be
// safe for concurrent use.  When ctx is cancelled the wave stops in bounded
// time and ctx's error is returned.
func Nonempty(ctx context.Context, p *circuit.Program, inputs func(key structure.WeightKey) Value, workers int) ([]bool, error) {
	return circuit.ParallelEvaluateAllProgramCtx[bool](ctx, p, semiring.Bool, func(key structure.WeightKey) (bool, bool) {
		if inputs == nil {
			return false, true
		}
		v := inputs(key)
		return v != nil && !v.Empty(), true
	}, workers)
}

// NewProgram builds the enumerator directly on a frozen Program, sharing its
// ranks, wires and children arenas with every other engine using it, on a
// clock of its own.  A
// non-nil nonempty carries the per-gate non-emptiness precomputed by Nonempty
// and the pass skips recomputing it; nil has the pass decide it gate by gate.
// The Program's freeze already validated the topological gate order, so the
// emptiness bookkeeping may trust its ranks.
func NewProgram(p *circuit.Program, inputs func(key structure.WeightKey) Value, nonempty []bool) *Enumerator {
	return newProgram(new(mvcc.Clock), p, inputs, nonempty)
}

// newProgram is NewProgram with the enumerator's undo log attached to c, the
// clock of a session that keeps other engine states over p as well.
func newProgram(c *mvcc.Clock, p *circuit.Program, inputs func(key structure.WeightKey) Value, nonempty []bool) *Enumerator {
	if p.OutputGate() < 0 {
		panic("enumerate: circuit has no output gate")
	}
	n := p.NumGates()
	e := &Enumerator{
		p:          p,
		inputValue: make([]Value, p.NumInputs()),
		empty:      make([]bool, n),
		adders:     make([]*adderMeta, n),
		perms:      make([]*permGateMeta, n),
	}
	e.clock = c
	e.log = mvcc.NewLog[enumUndo](c, int64(unsafe.Sizeof(enumUndo{})))
	e.wave = circuit.NewWorklist(p)
	e.refresh = e.refreshWave
	e.isEmpty = func(gate int) bool { return e.empty[gate] }
	for id := 0; id < n; id++ {
		switch p.GateKind(id) {
		case circuit.KindInput:
			v := Value(zeroValue{})
			if inputs != nil {
				if got := inputs(p.InputKey(id)); got != nil {
					v = got
				}
			}
			e.inputValue[p.InputNumber(id)] = v
			e.empty[id] = v.Empty()
		case circuit.KindConst:
			e.empty[id] = p.ConstIsZero(id)
		case circuit.KindAdd:
			meta := newAdderMeta(p.ChildIDs(id), e.isEmpty)
			e.adders[id] = meta
			e.empty[id] = len(meta.positions) == 0
		case circuit.KindMul:
			anyEmpty := false
			for _, ch := range p.ChildIDs(id) {
				if e.empty[ch] {
					anyEmpty = true
				}
			}
			e.empty[id] = anyEmpty
		case circuit.KindPerm:
			meta := newPermGateMeta(p, id, e.isEmpty)
			e.perms[id] = meta
			if nonempty != nil {
				// The boolean permanent already decided matchability.
				e.empty[id] = !nonempty[id]
			} else {
				e.empty[id] = !meta.matchable((1<<uint(meta.rows))-1, nil)
			}
		}
	}
	return e
}

// Empty reports whether the output gate has the zero value (no monomials).
func (e *Enumerator) Empty() bool { return e.empty[e.p.OutputGate()] }

// GateEmpty reports emptiness of an arbitrary gate.
func (e *Enumerator) GateEmpty(id int) bool { return e.empty[id] }

// Cursor returns a fresh constant-delay cursor over the monomials of the
// output gate.
func (e *Enumerator) Cursor() Cursor { return e.gateCursor(e.p.OutputGate()) }

// CollectAll drains a fresh cursor into a slice, stopping after limit
// monomials (limit ≤ 0 means no limit).  Intended for tests and examples.
func (e *Enumerator) CollectAll(limit int) []provenance.Monomial {
	var out []provenance.Monomial
	cur := e.Cursor()
	for {
		m, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, m)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// SetInput replaces the value of a weight input and updates the emptiness
// bookkeeping along the input's fan-out cone: SetInputs of the one
// assignment.
func (e *Enumerator) SetInput(key structure.WeightKey, v Value) {
	e.SetInputs([]InputAssignment{{Key: key, Value: v}})
}

// SetInputs replaces the values of several weight inputs and refreshes the
// emptiness bookkeeping with a single propagation wave, so gates shared by
// several changed inputs are revisited once per batch instead of once per
// input.  The result is identical to calling SetInput for each assignment in
// order, except that the whole batch commits a single epoch — and none when
// every input already held its value.
func (e *Enumerator) SetInputs(assigns []InputAssignment) {
	e.clock.Lock()
	defer e.clock.Unlock()
	for _, a := range assigns {
		e.assign(a.Key, a.Value)
	}
	e.runWave()
	e.clock.Commit()
}

// assign stores an input value, touching the clock, and seeds the wave when
// its emptiness flipped; an input that already holds the value is left alone.
// The caller holds the clock exclusively and runs the wave.
func (e *Enumerator) assign(key structure.WeightKey, v Value) {
	id := e.p.InputGate(key)
	if id < 0 {
		return
	}
	if v == nil {
		v = zeroValue{}
	}
	held := &e.inputValue[e.p.InputNumber(id)]
	if v == *held {
		return
	}
	if e.log.Logging() {
		e.log.Append(enumUndo{gate: int32(id), kind: undoInput, oldEmpty: e.empty[id], oldInput: *held})
	}
	e.clock.Touch()
	*held = v
	if newEmpty := v.Empty(); newEmpty != e.empty[id] {
		e.empty[id] = newEmpty
		e.wave.Enlist(id)
	}
}

// runWave drains the worklist seeded by assign: children flip before their
// parents are refreshed and every affected gate is refreshed exactly once.
// Each affected gate only revisits the slots whose child actually flipped
// emptiness, so the cost per update is bounded by the circuit's fan-out and
// depth, not by the fan-in of wide gates.  An input whose emptiness flips
// twice within one batch is enlisted twice; refreshGate's per-slot work is
// idempotent, so the duplicate entries are harmless.
func (e *Enumerator) runWave() { e.wave.Drain(e.refresh) }

// refreshWave is the wave's per-gate step: refresh g's metadata and, when its
// emptiness flipped, log the old bit for pinned snapshots and pass the flip
// on.
func (e *Enumerator) refreshWave(g int, slots []int32) {
	newEmpty := e.refreshGate(g, slots)
	if newEmpty == e.empty[g] {
		return
	}
	if e.log.Logging() {
		e.log.Append(enumUndo{gate: int32(g), kind: undoEmpty, oldEmpty: e.empty[g]})
	}
	e.empty[g] = newEmpty
	e.wave.Enlist(g)
}

// refreshGate recomputes the metadata of gate g given the slots whose child
// flipped emptiness, and returns the gate's emptiness.
func (e *Enumerator) refreshGate(g int, slots []int32) bool {
	switch e.p.GateKind(g) {
	case circuit.KindAdd:
		meta := e.adders[g]
		kids := e.p.ChildIDs(g)
		for _, slot := range slots {
			want := !e.empty[kids[slot]]
			if has := meta.index[slot] >= 0; has == want {
				continue
			}
			if want {
				meta.index[slot] = int32(len(meta.positions))
				meta.positions = append(meta.positions, slot)
			} else {
				// Swap-remove.
				idx := meta.index[slot]
				last := meta.positions[len(meta.positions)-1]
				meta.positions[idx] = last
				meta.index[last] = idx
				meta.positions = meta.positions[:len(meta.positions)-1]
				meta.index[slot] = -1
			}
		}
		return len(meta.positions) == 0
	case circuit.KindMul:
		for _, ch := range e.p.ChildIDs(g) {
			if e.empty[ch] {
				return true
			}
		}
		return false
	case circuit.KindPerm:
		meta := e.perms[g]
		// Recomputing a column's type is idempotent, so a column with several
		// changed slots is simply recomputed more than once rather than
		// tracked in a per-call set.
		for _, slot := range slots {
			_, col := e.p.PermCell(g, int(slot))
			t := meta.columnType(col, e.isEmpty)
			if t == meta.colType[col] {
				continue
			}
			// Move the column between type lists.
			old := meta.colType[col]
			idx := meta.posInType[col]
			lst := meta.byType[old]
			last := lst[len(lst)-1]
			lst[idx] = last
			meta.posInType[last] = idx
			meta.byType[old] = lst[:len(lst)-1]
			meta.colType[col] = t
			meta.posInType[col] = len(meta.byType[t])
			meta.byType[t] = append(meta.byType[t], col)
		}
		return !meta.matchable((1<<uint(meta.rows))-1, nil)
	default:
		return e.empty[g]
	}
}

// ---------------------------------------------------------------------------
// Cursors per gate kind
// ---------------------------------------------------------------------------

// view is what a cursor needs from its owner to open child cursors: the live
// Enumerator for live cursors, a pinned Snapshot for snapshot cursors.  The
// cursor machinery below is otherwise oblivious to which epoch it streams.
type view interface {
	gateCursor(id int) Cursor
}

// gateCursor creates a cursor over the monomials of a gate.  Empty gates get
// an empty cursor.
func (e *Enumerator) gateCursor(id int) Cursor {
	if e.empty[id] {
		return &sliceCursor{}
	}
	kind := e.p.GateKind(id)
	switch kind {
	case circuit.KindInput:
		return e.inputValue[e.p.InputNumber(id)].Cursor()
	case circuit.KindConst:
		return &constCursor{remaining: e.p.ConstBig(id)}
	case circuit.KindAdd:
		return &concatCursor{e: e, children: e.p.ChildIDs(id), meta: e.adders[id]}
	case circuit.KindMul:
		return newProductCursor(e, e.p.ChildIDs(id))
	case circuit.KindPerm:
		return newPermCursor(e, e.perms[id])
	default:
		panic(fmt.Sprintf("enumerate: unsupported gate kind %v", kind))
	}
}

// constCursor yields the empty monomial N times.
type constCursor struct {
	remaining *big.Int
}

func (c *constCursor) Next() (provenance.Monomial, bool) {
	if c.remaining.Sign() <= 0 {
		return nil, false
	}
	c.remaining.Sub(c.remaining, big.NewInt(1))
	return provenance.NewMonomial(), true
}

// concatCursor enumerates an addition gate: the concatenation of its
// non-empty children (per slot).
type concatCursor struct {
	e        view
	children []int32
	meta     *adderMeta
	idx      int
	current  Cursor
}

func (c *concatCursor) Next() (provenance.Monomial, bool) {
	for {
		if c.current == nil {
			if c.idx >= len(c.meta.positions) {
				return nil, false
			}
			child := c.children[c.meta.positions[c.idx]]
			c.current = c.e.gateCursor(int(child))
		}
		if m, ok := c.current.Next(); ok {
			return m, true
		}
		c.current = nil
		c.idx++
	}
}

// productCursor enumerates a multiplication gate: the product (concatenation
// of monomials) over all combinations of children monomials, in
// lexicographic cursor order.
type productCursor struct {
	e        view
	children []int32
	cursors  []Cursor
	current  []provenance.Monomial
	started  bool
	done     bool
}

func newProductCursor(e view, children []int32) *productCursor {
	return &productCursor{
		e:        e,
		children: children,
		cursors:  make([]Cursor, len(children)),
		current:  make([]provenance.Monomial, len(children)),
	}
}

func (c *productCursor) Next() (provenance.Monomial, bool) {
	if c.done {
		return nil, false
	}
	if !c.started {
		c.started = true
		for i, ch := range c.children {
			c.cursors[i] = c.e.gateCursor(int(ch))
			m, ok := c.cursors[i].Next()
			if !ok {
				c.done = true
				return nil, false
			}
			c.current[i] = m
		}
		return c.output(), true
	}
	// Odometer advance from the last child.
	for i := len(c.children) - 1; i >= 0; i-- {
		if m, ok := c.cursors[i].Next(); ok {
			c.current[i] = m
			return c.output(), true
		}
		if i == 0 {
			c.done = true
			return nil, false
		}
		c.cursors[i] = c.e.gateCursor(int(c.children[i]))
		m, ok := c.cursors[i].Next()
		if !ok {
			c.done = true
			return nil, false
		}
		c.current[i] = m
	}
	c.done = true
	return nil, false
}

func (c *productCursor) output() provenance.Monomial {
	out := provenance.NewMonomial()
	for _, m := range c.current {
		out = out.Mul(m)
	}
	return out
}

// ---------------------------------------------------------------------------
// Permanent gate cursor (Lemma 23 / Lemma 39)
// ---------------------------------------------------------------------------

// matchable reports whether the rows in the mask can be matched to distinct
// columns whose type covers them, excluding the listed used columns
// (Hall's condition over the column-type counts).
func (m *permGateMeta) matchable(rowMask int, used []int) bool {
	if rowMask == 0 {
		return true
	}
	// count[t] = available columns of type t (excluding used).
	for sub := rowMask; ; sub = (sub - 1) & rowMask {
		if sub != 0 {
			need := popcount(sub)
			have := 0
			for t := 1; t < len(m.byType); t++ {
				if t&sub == 0 {
					continue
				}
				avail := len(m.byType[t])
				for _, u := range used {
					if m.colType[u] == t {
						avail--
					}
				}
				have += avail
				if have >= need {
					break
				}
			}
			if have < need {
				return false
			}
		}
		if sub == 0 {
			break
		}
	}
	return true
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// permRowState is the enumeration state of one row of a permanent gate.
type permRowState struct {
	typeIdx int // current type (index into byType)
	listIdx int // position within byType[typeIdx]
	column  int
	cell    Cursor
	current provenance.Monomial
}

// permCursor enumerates a permanent gate: all products over injective
// assignments of rows to non-empty columns.
type permCursor struct {
	e     view
	meta  *permGateMeta
	rows  []*permRowState
	used  []int
	done  bool
	begun bool
}

func newPermCursor(e view, meta *permGateMeta) *permCursor {
	return &permCursor{e: e, meta: meta}
}

func (c *permCursor) Next() (provenance.Monomial, bool) {
	if c.done {
		return nil, false
	}
	if !c.begun {
		c.begun = true
		c.rows = make([]*permRowState, c.meta.rows)
		c.used = nil
		if !c.initRow(0) {
			c.done = true
			return nil, false
		}
		return c.output(), true
	}
	// Advance: try the deepest row's cell cursor, then its column, then
	// backtrack.
	r := c.meta.rows - 1
	for r >= 0 {
		st := c.rows[r]
		if m, ok := st.cell.Next(); ok {
			st.current = m
			// Deeper rows restart from their first monomial of their current
			// column/cell; but their cells are exhausted only when we reach
			// them, so restart them fully.
			if c.reinitBelow(r) {
				return c.output(), true
			}
			// Deeper rows unexpectedly failed (cannot happen thanks to the
			// matchability precondition); treat as exhaustion.
			c.done = true
			return nil, false
		}
		// Cell exhausted: advance this row to its next viable column.
		c.popUsed(r)
		if c.advanceRowColumn(r) {
			if c.reinitBelow(r) {
				return c.output(), true
			}
			c.done = true
			return nil, false
		}
		r--
	}
	c.done = true
	return nil, false
}

// output concatenates the current monomials of all rows.
func (c *permCursor) output() provenance.Monomial {
	out := provenance.NewMonomial()
	for _, st := range c.rows {
		out = out.Mul(st.current)
	}
	return out
}

// initRow positions row r on its first viable column and first cell
// monomial, recursing into deeper rows.
func (c *permCursor) initRow(r int) bool {
	if r == c.meta.rows {
		return true
	}
	st := &permRowState{typeIdx: 0, listIdx: -1}
	c.rows[r] = st
	if !c.seekColumn(r, st) {
		return false
	}
	return c.initRow(r + 1)
}

// reinitBelow restarts rows r+1.. with fresh columns and cells.
func (c *permCursor) reinitBelow(r int) bool {
	// Remove used columns of deeper rows.
	c.used = c.used[:r+1]
	for i := r + 1; i < c.meta.rows; i++ {
		c.rows[i] = nil
	}
	return c.initRow(r + 1)
}

// popUsed removes row r's column from the used set.
func (c *permCursor) popUsed(r int) {
	if len(c.used) > r {
		c.used = c.used[:r]
	}
}

// advanceRowColumn moves row r to its next viable column (after the current
// one) and initialises its cell cursor.
func (c *permCursor) advanceRowColumn(r int) bool {
	st := c.rows[r]
	return c.seekColumn(r, st)
}

// seekColumn advances the (typeIdx, listIdx) pointer of row r to the next
// column that is non-empty at row r, unused, and keeps the remaining rows
// matchable; it then opens the cell cursor.  Returns false when exhausted.
func (c *permCursor) seekColumn(r int, st *permRowState) bool {
	remaining := 0
	for rr := r + 1; rr < c.meta.rows; rr++ {
		remaining |= 1 << uint(rr)
	}
	for t := st.typeIdx; t < len(c.meta.byType); t++ {
		if t&(1<<uint(r)) == 0 {
			st.typeIdx = t + 1
			st.listIdx = -1
			continue
		}
		list := c.meta.byType[t]
		start := 0
		if t == st.typeIdx {
			start = st.listIdx + 1
		}
		for i := start; i < len(list); i++ {
			col := list[i]
			if c.isUsed(col) {
				continue
			}
			// Viability: remaining rows must be matchable avoiding used∪{col}.
			c.used = append(c.used, col)
			ok := c.meta.matchable(remaining, c.used)
			if !ok {
				c.used = c.used[:len(c.used)-1]
				// All columns of this type are equivalent for matchability,
				// so skip the rest of the type.
				break
			}
			cell := c.e.gateCursor(c.meta.cell(r, col))
			m, cellOK := cell.Next()
			if !cellOK {
				// Cannot happen: the column type asserts non-emptiness.
				c.used = c.used[:len(c.used)-1]
				continue
			}
			st.typeIdx = t
			st.listIdx = i
			st.column = col
			st.cell = cell
			st.current = m
			return true
		}
		st.typeIdx = t + 1
		st.listIdx = -1
	}
	return false
}

func (c *permCursor) isUsed(col int) bool {
	for _, u := range c.used {
		if u == col {
			return true
		}
	}
	return false
}
