// Program: the frozen, flat execution form of a circuit.
//
// A Circuit is a builder: convenient to grow gate by gate, but expensive to
// execute — every Gate carries its own Children slice and *big.Int, so the
// hot loops of the evaluation, maintenance and enumeration engines chase
// pointers all over the heap and each engine re-derives children, parents,
// ranks and level schedules on the side.  Freezing compiles the circuit once
// into a Program: a struct-of-arrays (CSR) layout with one shared children
// arena, a wires CSR saying at which slot of which parent every gate sits (the
// one child→parent index in the tree, which every propagation wave walks),
// interned constants with a small-int fast path, and the topological ranks
// plus the level schedule baked in.  A Program is immutable and safe for any
// number of concurrent evaluations, dynamic sessions and enumerators; they all
// borrow its bookkeeping instead of rebuilding their own.
//
// The split is the seam between build and execute: Circuit stays the
// construction API (internal/compile and the examples keep building through
// it) and has no evaluators; EvaluateProgram, ParallelEvaluateAllProgram,
// Dynamic and the enumeration engine all run on the frozen Program.
package circuit

import (
	"fmt"
	"math/big"
	"time"
	"unsafe"

	"repro/internal/structure"
)

// Program is a frozen CSR compilation of a built Circuit.  All slices are
// internal arenas; the exported accessors hand out read-only views that must
// not be mutated.  Obtain one with Circuit.Program (memoised) or Freeze.
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

	// kind[id] is the gate kind; arg[id] is the kind-specific payload index:
	// an index into inputKeys for inputs, into constSmall/constBig for
	// constants, into perms for permanent gates, and -1 otherwise.
	kind []uint8
	arg  []int32

	// Children CSR: the operand gates of gate id are
	// children[childStart[id]:childStart[id+1]]; the index of an operand in
	// that slice is its slot.  For permanent gates the slice lists the wired
	// entry gates in entry order.
	childStart []int32
	children   []int32

	// Wires CSR, the inverse of the children arena: gate id is read at
	// wires[wireStart[id]:wireStart[id+1]], one (parent, slot) per occurrence
	// with children[childStart[parent]+slot] == id, ordered by parent then
	// slot.  A gate wired k times into one parent has k wires to it.
	wireStart []int32
	wires     []Wire

	// rank[id] is the topological rank (longest path from a leaf); children
	// always have strictly smaller rank.  levels lists all gate ids grouped
	// by rank: rank-d gates are levels[levelOff[d]:levelOff[d+1]].
	rank     []int32
	maxRank  int
	levelOff []int32
	levels   []int32

	// Input gates: inputKeys[arg[id]] is the weight key of input gate id;
	// inputIndex resolves a key back to its gate id.
	inputKeys  []structure.WeightKey
	inputIndex map[structure.WeightKey]int32

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

	// freezeDur is the wall-clock cost of Freeze, recorded here because
	// freezing happens deep inside compilation (no context in scope); the
	// facade reads it back through FreezeDuration to attribute the time to
	// the freeze stage of its trace.
	freezeDur time.Duration
}

// FreezeDuration reports how long Freeze took to build this Program.
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

// Freeze compiles a built circuit into its frozen Program form.  It
// validates the builder's topological-order invariant (every child id
// strictly smaller than its parent's) and panics on circuits violating it,
// so every engine running on a Program may propagate in id/rank order
// without further checks.
func Freeze(c *Circuit) *Program {
	freezeStart := time.Now()
	n := len(c.Gates)
	if n > 1<<31-1 {
		panic("circuit: too many gates to freeze (gate ids exceed int32)")
	}
	p := &Program{
		numGates:   n,
		output:     c.Output,
		kind:       make([]uint8, n),
		arg:        make([]int32, n),
		childStart: make([]int32, n+1),
		rank:       make([]int32, n),
	}

	// Pass 1: kinds, child counts, payload indexes, ranks, wire counts,
	// topological-order validation.
	childCount := 0
	entryCount := 0
	colCount := 0
	p.wireStart = make([]int32, n+1)
	constIdx := map[string]int32{}
	for id := 0; id < n; id++ {
		g := &c.Gates[id]
		p.kind[id] = uint8(g.Kind)
		p.arg[id] = -1
		r := int32(0)
		visit := func(ch int) {
			if ch < 0 || ch >= id {
				panic(fmt.Sprintf("circuit: gate %d has child %d; gates must be stored in topological order (child ids smaller than the parent's)", id, ch))
			}
			if p.rank[ch]+1 > r {
				r = p.rank[ch] + 1
			}
			p.wireStart[ch+1]++
		}
		switch g.Kind {
		case KindInput:
			p.arg[id] = int32(len(p.inputKeys))
			p.inputKeys = append(p.inputKeys, g.Key)
		case KindConst:
			key := g.N.String()
			ci, ok := constIdx[key]
			if !ok {
				ci = int32(len(p.constSmall))
				constIdx[key] = ci
				if g.N.IsInt64() {
					p.constSmall = append(p.constSmall, g.N.Int64())
					p.constBig = append(p.constBig, nil)
				} else {
					p.constSmall = append(p.constSmall, 0)
					p.constBig = append(p.constBig, new(big.Int).Set(g.N))
				}
			}
			p.arg[id] = ci
		case KindAdd, KindMul:
			for _, ch := range g.Children {
				visit(ch)
			}
			childCount += len(g.Children)
		case KindPerm:
			p.arg[id] = int32(len(p.perms))
			p.perms = append(p.perms, permProgram{rows: int32(g.Rows), cols: int32(g.Cols), entOff: int32(entryCount), colOff: int32(colCount)})
			colCount += g.Cols + 1
			for _, e := range g.Entries {
				visit(e.Gate)
			}
			childCount += len(g.Entries)
			entryCount += len(g.Entries)
		default:
			panic(fmt.Sprintf("circuit: unknown gate kind %v", g.Kind))
		}
		p.rank[id] = r
		if int(r) > p.maxRank {
			p.maxRank = int(r)
		}
		if childCount > 1<<31-1 {
			panic("circuit: too many wires to freeze (children arena offsets exceed int32)")
		}
		p.childStart[id+1] = int32(childCount)
	}
	if n == 0 {
		p.maxRank = -1
	}

	// Pass 2: fill the children arena and the permanent-entry arenas.  The
	// entries of each permanent gate are stored column-major (stably sorted
	// by column), so evaluation can run the column dynamic program straight
	// off the arena without materialising a per-column matrix, and the
	// counting sort's offsets stay behind as the gate's column index.
	p.children = make([]int32, childCount)
	p.permRows = make([]int32, entryCount)
	p.permCols = make([]int32, entryCount)
	p.permColStart = make([]int32, colCount)
	for id := 0; id < n; id++ {
		g := &c.Gates[id]
		off := p.childStart[id]
		switch g.Kind {
		case KindAdd, KindMul:
			for i, ch := range g.Children {
				p.children[off+int32(i)] = int32(ch)
			}
		case KindPerm:
			pm := p.perms[p.arg[id]]
			place := p.permColStart[pm.colOff : pm.colOff+pm.cols+1]
			for _, e := range g.Entries {
				place[e.Col+1]++
			}
			for col := 0; col < g.Cols; col++ {
				place[col+1] += place[col]
			}
			for _, e := range g.Entries {
				i := place[e.Col]
				place[e.Col]++
				p.children[off+i] = int32(e.Gate)
				p.permRows[pm.entOff+i] = int32(e.Row)
				p.permCols[pm.entOff+i] = int32(e.Col)
			}
			// Filling advanced every column's offset to the next column's.
			copy(place[1:], place[:g.Cols])
			place[0] = 0
		}
	}

	// Pass 3: wires CSR.  Visiting parents in increasing id and their slots in
	// increasing order leaves each gate's wires sorted by (parent, slot).
	for id := 0; id < n; id++ {
		p.wireStart[id+1] += p.wireStart[id]
	}
	p.wires = make([]Wire, childCount)
	fill := make([]int32, n)
	for id := 0; id < n; id++ {
		for slot, ch := range p.children[p.childStart[id]:p.childStart[id+1]] {
			p.wires[p.wireStart[ch]+fill[ch]] = Wire{Parent: int32(id), Slot: int32(slot)}
			fill[ch]++
		}
	}

	// Pass 4: level schedule by counting sort on rank.
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

	// Input index: derived from the gates themselves so that hand-built
	// circuits (no builder map) freeze correctly too.
	p.inputIndex = make(map[structure.WeightKey]int32, len(p.inputKeys))
	for id := 0; id < n; id++ {
		if p.kind[id] == uint8(KindInput) {
			p.inputIndex[p.inputKeys[p.arg[id]]] = int32(id)
		}
	}
	p.freezeDur = time.Since(freezeStart)
	return p
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
func (p *Program) NumInputs() int { return len(p.inputKeys) }

// InputNumber returns the position of input gate id among the program's
// inputs, in gate order (0 ≤ n < NumInputs): the index of per-input state.  It
// panics when id is not an input gate.
func (p *Program) InputNumber(id int) int {
	if p.kind[id] != uint8(KindInput) {
		panic(fmt.Sprintf("circuit: gate %d is not an input gate", id))
	}
	return int(p.arg[id])
}

// InputKey returns the weight key of input gate id; it panics when id is not
// an input gate.
func (p *Program) InputKey(id int) structure.WeightKey { return p.inputKeys[p.InputNumber(id)] }

// InputGate returns the gate id of the input with the given weight key, or
// -1 when the program does not reference it.
func (p *Program) InputGate(key structure.WeightKey) int {
	if id, ok := p.inputIndex[key]; ok {
		return int(id)
	}
	return -1
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
// every arena at its element size, the interned constants, the input keys
// and an estimate of the input-index map.  It deliberately excludes the
// builder Circuit the program was frozen from — the point of the frozen form
// is that execution engines and caches can drop or share everything else.
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
	for _, k := range p.inputKeys {
		// Key struct plus the string bytes, counted once here and once for
		// the map copy of the key.
		bytes += 2 * (int64(unsafe.Sizeof(k)) + int64(len(k.Weight)+len(k.Tuple)))
	}
	bytes += int64(len(p.inputIndex)) * 16 // map slot overhead (value + buckets, approximate)
	return bytes
}
