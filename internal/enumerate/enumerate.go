// Package enumerate implements constant-delay enumeration of the answers to
// first-order queries with Gaifman-preserving updates (Theorem 24).
//
// The answers of ϕ(x̄) are the monomials of the closure Σ_x̄ [ϕ(x̄)] ·
// w_1(x_1) ··· w_k(x_k) evaluated in the free semiring with w_i(a) the answer
// generator e^i_a (equation (4)).  The circuit of that closure has two kinds
// of inputs: the answer generators, and Lemma 40's 0/1 memberships of the
// dynamic relations.  Neither carries more than one monomial, so the
// enumerator holds no value per input: an input is an emptiness bit, and its
// generator — an (answer variable, element) pair, or none for a membership —
// is read from one immutable table every enumerator over the closure shares.
//
// After a linear-time preprocessing pass over the circuit, a cursor over the
// output gate produces the answers with constant delay.  As in Kazana and
// Segoufin's enumeration, a cursor is a fixed stack of positions into the
// preprocessed structure: one node per position of the current derivation
// (the chosen child of an addition, every factor of a product, the column and
// cell of each row of a permanent), all writing their generators onto one
// shared frame.  A cursor opens only gates that are non-empty at its epoch,
// so an input node writes its generator from the table and resolves nothing.
// A node that wraps around is reset in place and a node moved to another gate
// keeps its storage, so once a cursor has grown to the shape of the circuit,
// advancing it allocates nothing.  Permanent gates use the column-type
// bookkeeping of Lemma 39 so that only columns that can still be extended to
// a full system of distinct representatives are ever touched.
package enumerate

import (
	"context"
	"math/bits"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/mvcc"
	"repro/internal/semiring"
	"repro/internal/structure"
)

// Generator is the answer generator e^Var_Elem of Theorem 24 — answer
// variable Var takes element Elem — that an input gate writes onto every
// monomial through it.  NoGenerator marks an input that writes none: a 0/1
// membership input of Lemma 40.
type Generator struct {
	Var  int
	Elem structure.Element
}

// NoGenerator is the generator of a membership input.
var NoGenerator = Generator{Var: -1}

// generators tabulates gen over the input gates of p by input number: the
// immutable table every enumerator over p shares.
func generators(p *circuit.Program, gen func(in circuit.Input) Generator) []Generator {
	gens := make([]Generator, p.NumInputs())
	for id := range p.NumGates() {
		if p.GateKind(id) == circuit.KindInput {
			gens[p.InputNumber(id)] = gen(p.Input(id))
		}
	}
	return gens
}

// ---------------------------------------------------------------------------
// Enumerator over a circuit
// ---------------------------------------------------------------------------

// Enumerator maintains the emptiness of every gate of a circuit whose inputs
// each carry at most one generator, and streams the monomials of its output
// gate: after linear preprocessing it provides constant-delay cursors and
// supports input updates in constant time per affected gate (the circuits
// produced by the compiler have bounded depth and fan-out, hence bounded
// reach-out).
//
// The enumerator runs on the circuit's frozen Program and borrows its
// topological ranks, wires, children arena and permanent columns instead of
// rebuilding them, and reads its inputs' generators from a table it shares
// with every copy: many enumerators may share one Program, each holding
// emptiness only — one bit per gate, and per addition or permanent gate the
// non-empty slots and column types, carved out of two arenas sized once from
// the Program.  What a reader holds is a cursor: a stack of nodes over that
// state (see the package comment), grown to the circuit's shape on its first
// answers and reset in place after that; the stack and its frame belong to
// the cursor, never to the Enumerator.
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

	// gens[p.InputNumber(id)] is the generator of input gate id, shared by
	// every copy of the enumerator and never written.
	gens []Generator

	// log is this state's undo history on clock: per committed epoch, the
	// pre-change emptiness bits that pinned snapshots roll back through.
	clock *mvcc.Clock
	log   *mvcc.Log[enumUndo]

	empty []bool

	// meta[id] indexes adders or perms, by the kind of gate id.
	meta   []int32
	adders []adderMeta
	perms  []permGateMeta

	// wave queues the parents of gates whose emptiness flipped and drains
	// them in increasing rank order, so every affected gate is refreshed
	// exactly once per update batch.  refresh and isEmpty are refreshWave and
	// the live emptiness view, bound once so a wave allocates nothing.
	wave    *circuit.Worklist
	refresh func(g int, slots []int32)
	isEmpty func(gate int) bool
}

// enumUndo is one undo-log entry: the emptiness bit of a gate before one
// committed transition.  Inputs and interior gates log alike — an input's
// generator never changes, and cursors re-derive everything else from the
// bits.
type enumUndo struct {
	gate     int32
	oldEmpty bool
}

func (u enumUndo) Slot() int32 { return u.gate }

// adderMeta maintains, for an addition gate, the slots whose child is
// currently non-empty.
type adderMeta struct {
	positions []int32 // slots with non-empty children; capacity the fan-in
	index     []int32 // slot → index in positions, -1 when absent
}

// adderWords is the arena length adderMeta.init takes for k children.
func adderWords(k int) int { return 2 * k }

// init derives the metadata a cursor reads for an addition gate over
// children on buf, under the given emptiness view (the live bits for the
// writer, the pinned epoch's for a snapshot).
func (m *adderMeta) init(children, buf []int32, empty func(gate int) bool) {
	k := len(children)
	m.index, m.positions = buf[:k], buf[k:k:2*k]
	for slot, ch := range children {
		m.index[slot] = -1
		if !empty(int(ch)) {
			m.index[slot] = int32(len(m.positions))
			m.positions = append(m.positions, int32(slot))
		}
	}
}

// permGateMeta maintains the Lemma 39 bookkeeping of permanent gate id of p,
// whose cells and columns it reads off the Program.
type permGateMeta struct {
	p    *circuit.Program
	id   int
	rows int
	// colType[col] is the bitmask of rows whose wired child is non-empty.
	// list holds the columns grouped by type, type t at list[start[t]:start[t+1]];
	// at[col] is the column's index in list.
	colType, list, at, start []int32
}

// permWords is the arena length permGateMeta.init takes for a rows × cols
// gate.
func permWords(rows, cols int) int { return 3*cols + 1<<rows + 1 }

// init derives the Lemma 39 column-type bookkeeping of permanent gate id on
// buf, under the given emptiness view (the live bits for the writer, the
// pinned epoch's for a snapshot): a counting sort of the columns by type.
func (m *permGateMeta) init(p *circuit.Program, id int, buf []int32, empty func(gate int) bool) {
	rows, cols := p.PermShape(id)
	m.p, m.id, m.rows = p, id, rows
	m.colType, m.list, m.at, m.start = buf[:cols], buf[cols:2*cols], buf[2*cols:3*cols], buf[3*cols:]
	for col := range m.colType {
		m.colType[col] = m.columnType(col, empty)
		m.start[m.colType[col]+1]++
	}
	for t := 1; t < len(m.start); t++ {
		m.start[t] += m.start[t-1]
	}
	// Fill each type from its start, which moves start[t] to start[t+1]'s
	// value; then shift the starts back.
	for col, t := range m.colType {
		m.list[m.start[t]], m.at[col] = int32(col), m.start[t]
		m.start[t]++
	}
	for t := len(m.start) - 2; t > 0; t-- {
		m.start[t] = m.start[t-1]
	}
	m.start[0] = 0
}

// retype moves col to type t, walking it across the type boundaries
// between its old type and t (at most 2^rows swaps).
func (m *permGateMeta) retype(col int, t int32) {
	for old := m.colType[col]; old != t; {
		i := m.at[col]
		var j int32 // the slot col swaps into, then the boundary moves over it
		if old < t {
			m.start[old+1]--
			j = m.start[old+1]
			old++
		} else {
			j = m.start[old]
			m.start[old]++
			old--
		}
		other := m.list[j]
		m.list[i], m.list[j] = other, int32(col)
		m.at[other], m.at[col] = i, j
	}
	m.colType[col] = t
}

// columnType returns the bitmask of the rows of col whose wired child is
// non-empty under the given emptiness view.
func (m *permGateMeta) columnType(col int, empty func(gate int) bool) int32 {
	rows, gates := m.p.PermColumn(m.id, col)
	t := int32(0)
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

// matchable reports whether the rows in the mask can be matched to distinct
// columns whose type covers them, excluding the used columns (Hall's
// condition over the column-type counts).
func (m *permGateMeta) matchable(rowMask int, used []int32) bool {
	for sub := rowMask; sub != 0; sub = (sub - 1) & rowMask {
		need, have := bits.OnesCount(uint(sub)), 0
		for t := 1; t < len(m.start)-1 && have < need; t++ {
			if t&sub == 0 {
				continue
			}
			have += int(m.start[t+1] - m.start[t])
			for _, u := range used {
				if m.colType[u] == int32(t) {
					have--
				}
			}
		}
		if have < need {
			return false
		}
	}
	return true
}

// Nonempty computes the initial non-emptiness of every gate with the
// level-parallel circuit engine (on workers goroutines; ≤ 0 selects
// GOMAXPROCS), for NewProgram to skip its own per-gate emptiness work: a
// gate's value is non-empty exactly when the circuit, with every input mapped
// to its presence, evaluates to true at that gate in the boolean semiring
// (for permanent gates the boolean permanent is the existence of a system of
// distinct representatives, which is Lemma 39's matchability test).  present
// is called from multiple goroutines and must be safe for concurrent use.
// When ctx is cancelled the wave stops in bounded time and ctx's error is
// returned.
func Nonempty(ctx context.Context, p *circuit.Program, present func(in circuit.Input) bool, workers int) ([]bool, error) {
	return circuit.ParallelEvaluateAllProgramCtx[bool](ctx, p, semiring.Bool, func(in circuit.Input) (bool, bool) {
		return present(in), true
	}, workers)
}

// NewProgram builds the enumerator of a hand-built circuit directly on its
// frozen Program, on a clock of its own: inputs gives each input's generator
// (NoGenerator for a membership) and whether it is present.  A non-nil
// nonempty carries the per-gate non-emptiness precomputed by Nonempty and the
// pass skips recomputing it; nil has the pass decide it gate by gate.
func NewProgram(p *circuit.Program, inputs func(in circuit.Input) (Generator, bool), nonempty []bool) *Enumerator {
	present := make([]bool, p.NumInputs())
	gens := generators(p, func(in circuit.Input) (g Generator) {
		g, present[p.InputNumber(in.Gate)] = inputs(in)
		return g
	})
	return newProgram(new(mvcc.Clock), p, gens, func(in circuit.Input) bool { return present[p.InputNumber(in.Gate)] }, nonempty)
}

// newProgram builds the enumerator over the generator table gens with its
// undo log attached to c, the clock of a session that may keep other engine
// states over p as well.  The builder appends a gate only after its
// operands, so the emptiness bookkeeping may trust the Program's ranks.
func newProgram(c *mvcc.Clock, p *circuit.Program, gens []Generator, present func(in circuit.Input) bool, nonempty []bool) *Enumerator {
	if p.OutputGate() < 0 {
		panic("enumerate: circuit has no output gate")
	}
	n := p.NumGates()
	// Size the metadata arenas, then carve every gate's share out of them.
	var adders, perms, addWords, permWordsTotal int
	for id := 0; id < n; id++ {
		switch p.GateKind(id) {
		case circuit.KindAdd:
			adders++
			addWords += adderWords(len(p.ChildIDs(id)))
		case circuit.KindPerm:
			perms++
			permWordsTotal += permWords(p.PermShape(id))
		}
	}
	e := &Enumerator{
		p:      p,
		gens:   gens,
		empty:  make([]bool, n),
		meta:   make([]int32, n),
		adders: make([]adderMeta, 0, adders),
		perms:  make([]permGateMeta, 0, perms),
	}
	addArena, permArena := make([]int32, addWords), make([]int32, permWordsTotal)
	carve := func(arena *[]int32, k int) []int32 {
		s := (*arena)[:k:k]
		*arena = (*arena)[k:]
		return s
	}
	e.clock = c
	e.log = mvcc.NewLog[enumUndo](c, int64(unsafe.Sizeof(enumUndo{})))
	e.wave = circuit.NewWorklist(p)
	e.refresh = e.refreshWave
	e.isEmpty = func(gate int) bool { return e.empty[gate] }
	for id := 0; id < n; id++ {
		switch p.GateKind(id) {
		case circuit.KindInput:
			e.empty[id] = !present(p.Input(id))
		case circuit.KindConst:
			e.empty[id] = p.ConstIsZero(id)
		case circuit.KindAdd:
			kids := p.ChildIDs(id)
			e.meta[id] = int32(len(e.adders))
			e.adders = append(e.adders, adderMeta{})
			meta := &e.adders[len(e.adders)-1]
			meta.init(kids, carve(&addArena, adderWords(len(kids))), e.isEmpty)
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
			e.meta[id] = int32(len(e.perms))
			e.perms = append(e.perms, permGateMeta{})
			meta := &e.perms[len(e.perms)-1]
			meta.init(p, id, carve(&permArena, permWords(p.PermShape(id))), e.isEmpty)
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
// output gate, each read as a tuple of the given arity: the element of
// generator e^i_a lands at position i.
func (e *Enumerator) Cursor(arity int) *TupleCursor { return newCursor(e, e, arity) }

// assign sets the presence of input gate id (-1, an input the circuit does
// not reference, is ignored), touching the clock and seeding the wave when
// it flips; an input already present or absent as asked is left alone.  The
// caller holds the clock exclusively and runs the wave: assigning a batch
// and then draining it once revisits gates shared by several changed inputs
// once per batch, not once per input.
func (e *Enumerator) assign(id int, present bool) {
	if id < 0 || e.empty[id] == !present {
		return
	}
	if e.log.Logging() {
		e.log.Append(enumUndo{gate: int32(id), oldEmpty: e.empty[id]})
	}
	e.clock.Touch()
	e.empty[id] = !present
	e.wave.Enlist(id)
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
		e.log.Append(enumUndo{gate: int32(g), oldEmpty: e.empty[g]})
	}
	e.empty[g] = newEmpty
	e.wave.Enlist(g)
}

// refreshGate recomputes the metadata of gate g given the slots whose child
// flipped emptiness, and returns the gate's emptiness.
func (e *Enumerator) refreshGate(g int, slots []int32) bool {
	switch e.p.GateKind(g) {
	case circuit.KindAdd:
		meta := &e.adders[e.meta[g]]
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
		meta := &e.perms[e.meta[g]]
		// Recomputing a column's type is idempotent, so a column with several
		// changed slots is simply recomputed more than once rather than
		// tracked in a per-call set.
		for _, slot := range slots {
			_, col := e.p.PermCell(g, int(slot))
			meta.retype(col, meta.columnType(col, e.isEmpty))
		}
		return !meta.matchable((1<<uint(meta.rows))-1, nil)
	default:
		return e.empty[g]
	}
}
