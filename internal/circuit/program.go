// Program: the frozen, flat execution form of a circuit.
//
// The hot loops of the evaluation, maintenance and enumeration engines walk
// gates by id, so a circuit is laid out as a struct of arrays (CSR) from its
// first gate on: the builder (circuit.go) appends each gate's kind, payload
// index, operands, rank, input key, constant and permanent cells straight
// into these arenas.  Freezing adds what needs the finished circuit — a wires
// CSR saying at which slot of which parent every gate sits (the one
// child→parent index in the tree, which every propagation wave walks) and the
// level schedule — and cuts each arena to its exact length, so the Program
// and the builder share one copy of the circuit and the builder's next append
// moves to a new array instead of writing under a frozen Program.  A Program
// is immutable and safe for any number of concurrent evaluations, dynamic
// sessions and enumerators; they all borrow its bookkeeping instead of
// rebuilding their own.
//
// The Circuit has no evaluators; EvaluateProgram,
// ParallelEvaluateAllProgramCtx, Values, Dynamic and the enumeration engine
// all run on the Program.
package circuit

import (
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/structure"
)

// Program is a frozen CSR circuit.  All slices are internal arenas; the
// exported accessors hand out read-only views that must not be mutated.
// Obtain one with Circuit.Program (memoised) or Freeze.
//
// The Program owns the whole shape of the circuit: kinds, operands, the slot
// each operand occupies in its gate (and, in a permanent gate, the matrix cell
// that slot is), the wires back from a gate to those slots, ranks and levels.
// Everything an engine keeps per instance — values, emptiness bits,
// aggregation trees, column types — is addressed by gate id and slot into
// these arenas, so no engine state rebuilds any of it.
type Program struct {
	numGates int
	output   int

	// The arenas the builder appended the gates to.
	arenas

	// Wires CSR, the inverse of the children arena: gate id is read at
	// wires[wireStart[id]:wireStart[id+1]], one (parent, slot) per occurrence
	// with children[childStart[parent]+slot] == id, ordered by parent then
	// slot.  A gate wired k times into one parent has k wires to it.
	wireStart []int32
	wires     []Wire

	// levels lists all gate ids grouped by rank: rank-d gates are
	// levels[levelOff[d]:levelOff[d+1]].
	levelOff []int32
	levels   []int32

	// freezeDur is the wall-clock cost of freezing, recorded here because
	// it happens deep inside compilation (no context in scope); the facade
	// reads it back through FreezeDuration to attribute the time to the
	// freeze stage of its trace.
	freezeDur time.Duration
}

// arenas is a circuit gate by gate, in the layout a Program reads: what the
// builder appends as each gate is added.
type arenas struct {
	// kind[id] is the gate kind; arg[id] is the kind-specific payload index:
	// the input number for inputs, into constSmall/constBig for
	// constants, into perms for permanent gates, and -1 otherwise.
	kind []uint8
	arg  []int32

	// Children CSR: the operand gates of gate id are
	// children[childStart[id]:childStart[id+1]]; the index of an operand in
	// that slice is its slot.  For permanent gates the slice lists the wired
	// entry gates column-major.
	childStart []int32
	children   []int32

	// rank[id] is the topological rank (longest path from a leaf); children
	// always have strictly smaller rank.  maxRank is the largest.
	rank    []int32
	maxRank int

	// Input gates: input number i, the arg of gate inputGates[i], is entry i
	// of inputs, whose head packs the number of its symbol in inputSyms with
	// its role (inputHead) and whose tuple is its elements.
	inputSyms  []string
	inputs     structure.TupleIndex
	inputGates []int32

	// Interned constants: constant gate id has value constSmall[arg[id]]
	// unless constBig[arg[id]] is non-nil (a constant that does not fit
	// int64 — the only case paying big.Int arithmetic on the hot path).
	constSmall []int64
	constBig   []*big.Int

	// Permanent gates: perms[arg[id]] describes the matrix; the wired rows
	// and columns of its entries are permRows/permCols[entOff:entOff+k]
	// where k is the gate's child count, parallel to the children arena, so
	// slot i of the gate is the cell (permRows[entOff+i], permCols[entOff+i]).
	// Entries are column-major: column c of the gate is the run of slots
	// permColStart[colOff+c] ≤ i < permColStart[colOff+c+1].
	perms        []permProgram
	permRows     []int32
	permCols     []int32
	permColStart []int32
}

// FreezeDuration reports how long freezing this Program took.
func (p *Program) FreezeDuration() time.Duration { return p.freezeDur }

type permProgram struct {
	rows, cols int32
	entOff     int32
	colOff     int32
}

// Wire is one occurrence of a gate among the operands of another:
// ChildIDs(Parent)[Slot] is the gate the wire leaves.
type Wire struct {
	Parent, Slot int32
}

// Freeze returns a new Program over the circuit built so far.
// Circuit.Program does the same once and memoises the result.
func Freeze(c *Circuit) *Program {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	return c.freeze()
}

// freeze cuts the builder's arenas to their exact lengths, drops the
// builder's unique table and derives the wires CSR and the level schedule
// over them.  The caller holds c.progMu.
func (c *Circuit) freeze() *Program {
	start := time.Now()
	a := &c.arenas
	a.kind, a.arg, a.childStart, a.children, a.rank = exact(a.kind), exact(a.arg), exact(a.childStart), exact(a.children), exact(a.rank)
	a.inputSyms, a.inputGates, a.constSmall, a.constBig = exact(a.inputSyms), exact(a.inputGates), exact(a.constSmall), exact(a.constBig)
	a.perms, a.permRows, a.permCols, a.permColStart = exact(a.perms), exact(a.permRows), exact(a.permCols), exact(a.permColStart)
	c.frozenInputs = true
	c.unique = unique{}
	n := len(a.kind)
	p := &Program{numGates: n, output: c.Output, arenas: *a}

	// Wires CSR.  Visiting parents in increasing id and their slots in
	// increasing order leaves each gate's wires sorted by (parent, slot).
	p.wireStart = make([]int32, n+1)
	for _, ch := range p.children {
		p.wireStart[ch+1]++
	}
	for id := 0; id < n; id++ {
		p.wireStart[id+1] += p.wireStart[id]
	}
	p.wires = make([]Wire, len(p.children))
	fill := make([]int32, n)
	for id := 0; id < n; id++ {
		for slot, ch := range p.children[p.childStart[id]:p.childStart[id+1]] {
			p.wires[p.wireStart[ch]+fill[ch]] = Wire{Parent: int32(id), Slot: int32(slot)}
			fill[ch]++
		}
	}

	// Level schedule by counting sort on rank.
	p.levelOff = make([]int32, p.maxRank+2)
	for _, r := range p.rank {
		p.levelOff[r+1]++
	}
	for d := 0; d < len(p.levelOff)-1; d++ {
		p.levelOff[d+1] += p.levelOff[d]
	}
	p.levels = make([]int32, n)
	levelFill := make([]int32, p.maxRank+1)
	for id := 0; id < n; id++ {
		r := p.rank[id]
		p.levels[p.levelOff[r]+levelFill[r]] = int32(id)
		levelFill[r]++
	}
	p.freezeDur = time.Since(start)
	return p
}

// exact returns s in an array of exactly its length, copying it when the
// array has room to spare.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Stats summarises the structural parameters that Theorem 6 bounds.
type Stats struct {
	Gates       int
	Edges       int
	Depth       int
	MaxPermRows int
	PermGates   int
	InputGates  int
}

// Stats returns the structural statistics of the program.
func (p *Program) Stats() Stats {
	st := Stats{Gates: p.numGates, Edges: len(p.children), Depth: p.maxRank, PermGates: len(p.perms), InputGates: len(p.inputGates)}
	for _, pm := range p.perms {
		st.MaxPermRows = max(st.MaxPermRows, int(pm.rows))
	}
	return st
}

// NumGates returns the number of gates.
func (p *Program) NumGates() int { return p.numGates }

// OutputGate returns the output gate id, or -1 when none was set.
func (p *Program) OutputGate() int { return p.output }

// GateKind returns the kind of gate id.
func (p *Program) GateKind(id int) Kind { return Kind(p.kind[id]) }

// ChildIDs returns the operand gates of gate id as a view into the shared
// children arena (entry gates in entry order for permanent gates).  The
// returned slice must not be modified.
func (p *Program) ChildIDs(id int) []int32 {
	return p.children[p.childStart[id]:p.childStart[id+1]]
}

// Wires returns every occurrence of gate id among the operands of other
// gates, ordered by parent then slot, as a view into the shared wires arena.
// The returned slice must not be modified.
func (p *Program) Wires(id int) []Wire {
	return p.wires[p.wireStart[id]:p.wireStart[id+1]]
}

// Rank returns the topological rank of gate id (the length of the longest
// path from a leaf); every child has a strictly smaller rank.
func (p *Program) Rank(id int) int { return int(p.rank[id]) }

// Depth returns the maximum rank, i.e. the circuit depth (-1 for an empty
// program).
func (p *Program) Depth() int { return p.maxRank }

// LevelGates returns the ids of all gates of rank d, in increasing order, as
// a view into the baked level schedule.  The returned slice must not be
// modified.
func (p *Program) LevelGates(d int) []int32 {
	return p.levels[p.levelOff[d]:p.levelOff[d+1]]
}

// NumInputs returns the number of input gates.
func (p *Program) NumInputs() int { return len(p.inputGates) }

// InputNumber returns the position of input gate id among the program's
// inputs, in gate order (0 ≤ n < NumInputs): the index of per-input state.  It
// panics when id is not an input gate.
func (p *Program) InputNumber(id int) int {
	if p.kind[id] != uint8(KindInput) {
		notAnInput(id)
	}
	return int(p.arg[id])
}

// notAnInput panics that gate id is not an input gate.  It is kept out of
// line so that InputNumber, which the enumeration cursor calls per answer,
// stays within the inliner's budget.
//
//go:noinline
func notAnInput(id int) {
	panic(fmt.Sprintf("circuit: gate %d is not an input gate", id))
}

// Input returns input gate id as its integers; it panics when id is not an
// input gate.
func (p *Program) Input(id int) Input {
	p.InputNumber(id)
	return p.input(id)
}

// input is Input unchecked, so that the evaluators' sweeps inline it.
func (p *Program) input(id int) Input {
	n := int(p.arg[id])
	h := p.inputs.Head(n)
	return Input{Gate: id, Symbol: p.inputSyms[h>>2], Role: structure.Role(h & 3), Tuple: p.inputs.Tuple(n)}
}

// FindInput returns the gate of the input of symbol sym, in the given role,
// at tuple t, or -1 when the circuit does not reference it.  It allocates
// nothing.
func (a *arenas) FindInput(sym string, role structure.Role, t structure.Tuple) int {
	s := slices.Index(a.inputSyms, sym)
	if s < 0 {
		return -1
	}
	if n := a.inputs.Find(inputHead(s, role), t); n >= 0 {
		return int(a.inputGates[n])
	}
	return -1
}

// inputHead packs a symbol number and a role into an input's index head.
func inputHead(sym int, role structure.Role) int32 { return int32(sym)<<2 | int32(role) }

// InputKey formats the label of input gate id, for displays and callers that
// name inputs by text; it panics when id is not an input gate.
func (p *Program) InputKey(id int) structure.WeightKey {
	in := p.Input(id)
	return structure.InputLabel(in.Symbol, in.Role, in.Tuple)
}

// InputGate returns the gate of the input labelled key, decoding the label
// once, or -1 when the program does not reference it.
func (p *Program) InputGate(key structure.WeightKey) int {
	var buf [8]structure.Element
	t, err := key.AppendTuple(buf[:0])
	if err != nil {
		return -1
	}
	return p.FindInput(key.Weight, key.Role, t)
}

// ConstIsZero reports whether constant gate id has value 0; it panics when
// id is not a constant gate.
func (p *Program) ConstIsZero(id int) bool {
	ci := p.constArg(id)
	return p.constBig[ci] == nil && p.constSmall[ci] == 0
}

// ConstBig returns the value of constant gate id as a fresh big.Int; it
// panics when id is not a constant gate.
func (p *Program) ConstBig(id int) *big.Int {
	ci := p.constArg(id)
	if b := p.constBig[ci]; b != nil {
		return new(big.Int).Set(b)
	}
	return big.NewInt(p.constSmall[ci])
}

// ConstInt64 returns the value of constant gate id and ok=true when it fits
// int64, without allocating; it panics when id is not a constant gate.
func (p *Program) ConstInt64(id int) (v int64, ok bool) {
	ci := p.constArg(id)
	return p.constSmall[ci], p.constBig[ci] == nil
}

func (p *Program) constArg(id int) int32 {
	if p.kind[id] != uint8(KindConst) {
		panic(fmt.Sprintf("circuit: gate %d is not a constant gate", id))
	}
	return p.arg[id]
}

// PermShape returns the matrix dimensions of permanent gate id; it panics
// when id is not a permanent gate.
func (p *Program) PermShape(id int) (rows, cols int) {
	pm := p.perms[p.permArg(id)]
	return int(pm.rows), int(pm.cols)
}

// ForEachPermEntry calls f for every wired entry (row, col, child gate) of
// permanent gate id, in column-major order (entries stably sorted by column
// at freeze time); it panics when id is not a permanent gate.
func (p *Program) ForEachPermEntry(id int, f func(row, col, gate int)) {
	pm := p.perms[p.permArg(id)]
	kids := p.ChildIDs(id)
	for i, g := range kids {
		f(int(p.permRows[pm.entOff+int32(i)]), int(p.permCols[pm.entOff+int32(i)]), int(g))
	}
}

// PermCell returns the matrix cell (row, col) that slot of permanent gate id
// is wired to; it panics when id is not a permanent gate.
func (p *Program) PermCell(id, slot int) (row, col int) {
	i := p.perms[p.permArg(id)].entOff + int32(slot)
	return int(p.permRows[i]), int(p.permCols[i])
}

// PermColumn returns the wired cells of column col of permanent gate id, as
// views into the shared arenas that must not be modified: the i-th has row
// rows[i] and child gate gates[i].  It panics when id is not a permanent gate.
func (p *Program) PermColumn(id, col int) (rows, gates []int32) {
	pm := p.perms[p.permArg(id)]
	lo, hi := p.permColStart[pm.colOff+int32(col)], p.permColStart[pm.colOff+int32(col)+1]
	return p.permRows[pm.entOff+lo : pm.entOff+hi], p.children[p.childStart[id]+lo : p.childStart[id]+hi]
}

func (p *Program) permArg(id int) int32 {
	if p.kind[id] != uint8(KindPerm) {
		panic(fmt.Sprintf("circuit: gate %d is not a permanent gate", id))
	}
	return p.arg[id]
}

// Footprint returns the approximate resident size of the program in bytes:
// every arena at its element size, the interned constants and the input
// index.  The builder Circuit the program was frozen from
// shares these arenas and holds no copy of its own.
func (p *Program) Footprint() int64 {
	bytes := int64(len(p.kind)) // 1 byte per kind
	bytes += 4 * int64(len(p.arg)+len(p.childStart)+len(p.children)+
		len(p.wireStart)+2*len(p.wires)+len(p.rank)+len(p.levelOff)+len(p.levels)+
		len(p.permRows)+len(p.permCols)+len(p.permColStart))
	bytes += 16 * int64(len(p.perms))
	bytes += 8 * int64(len(p.constSmall))
	for _, b := range p.constBig {
		bytes += 8 // slice slot
		if b != nil {
			bytes += int64(len(b.Bytes())) + 24
		}
	}
	bytes += 4*int64(len(p.inputGates)) + p.inputs.Footprint()
	return bytes
}
