package circuit

import "slices"

// unique is the builder's unique table: the sums, products and permanents
// built so far, found by their operands without allocating.  It is an
// open-addressing table of gate ids with linear probing, at most half full.
// Each slot also carries its gate's 32-bit hash, whose low bits are its home
// slot, so a probe skips most other gates without reading their operands and
// growing rehashes without reading them either.  The hash is order-free over
// the operands (over the cells of a permanent), so a gate asked for with its
// operands in another order finds the first, which keeps the order it was
// built with.
type unique struct {
	slots   []uint64 // hash<<32 | gate id; 0 is empty, as gates 0 and 1 are constants
	n       int      // occupied slots
	scratch []uint64 // the two operand lists a probe sorts to compare as multisets
}

// intern returns the gate of kind k (a sum, product or permanent) with
// payload arg whose operands are the children appended since the previous
// gate: an equal gate already built, after dropping those operands and a
// permanent's pending cells, or else the gate appended now.
func (c *Circuit) intern(k Kind, arg int) int {
	u := &c.unique
	if u.slots == nil {
		c.rebuildUnique()
	}
	off := c.childStart[len(c.kind)]
	kids := c.children[off:]
	h := c.operandHash(k, arg, kids)
	mask := uint32(len(u.slots) - 1)
	for i := h & mask; u.slots[i] != 0; i = (i + 1) & mask {
		e := u.slots[i]
		if id := int(int32(e)); uint32(e>>32) == h && c.sameGate(id, k, arg, kids) {
			c.children = c.children[:off]
			if k == KindPerm {
				pm := c.perms[arg]
				c.permRows, c.permCols = c.permRows[:pm.entOff], c.permCols[:pm.entOff]
				c.permColStart, c.perms = c.permColStart[:pm.colOff], c.perms[:arg]
			}
			return id
		}
	}
	id := c.appendGate(k, arg)
	u.add(h, id)
	return id
}

// rebuildUnique builds the unique table over the gates built so far: on the
// first sum, product or permanent, and on the first after a freeze dropped
// it.  Inputs and constants have indexes of their own.
func (c *Circuit) rebuildUnique() {
	c.unique.slots, c.unique.n = make([]uint64, 64), 0
	for id, k := range c.kind {
		if k := Kind(k); k == KindAdd || k == KindMul || k == KindPerm {
			c.unique.add(c.operandHash(k, int(c.arg[id]), c.children[c.childStart[id]:c.childStart[id+1]]), id)
		}
	}
}

// add enters gate id, whose hash is h, doubling the table when it would be
// more than half full.
func (u *unique) add(h uint32, id int) {
	u.place(uint64(h)<<32 | uint64(id))
	if u.n++; 2*u.n > len(u.slots) {
		old := u.slots
		u.slots = make([]uint64, 2*len(old))
		for _, e := range old {
			if e != 0 {
				u.place(e)
			}
		}
	}
}

// place puts entry e into the first empty slot from its home slot on.
func (u *unique) place(e uint64) {
	mask := uint32(len(u.slots) - 1)
	i := uint32(e>>32) & mask
	for u.slots[i] != 0 {
		i = (i + 1) & mask
	}
	u.slots[i] = e
}

// operandHash hashes a gate of kind k with payload arg and operands kids,
// independently of the order of its operands: a sum of one mixed word per
// operand (per cell and its gate, for a permanent), mixed with the kind, the
// fan-in and a permanent's shape.
func (c *Circuit) operandHash(k Kind, arg int, kids []int32) uint32 {
	sum := uint64(k)<<32 | uint64(len(kids))
	if k == KindPerm {
		pm := c.perms[arg]
		sum += mix(uint64(pm.rows)<<32 | uint64(pm.cols))
		rows, cols := c.permRows[pm.entOff:], c.permCols[pm.entOff:]
		for i, g := range kids {
			sum += mix(mix(uint64(rows[i])<<32|uint64(cols[i])) + uint64(g))
		}
	} else {
		for _, g := range kids {
			sum += mix(uint64(g))
		}
	}
	return uint32(mix(sum) >> 32)
}

// mix is the finaliser of splitmix64.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sameGate reports whether gate id is the gate of kind k with payload arg and
// operands kids: a sum or product over the same multiset of operands, or a
// permanent of the same shape over the same multiset of cells.
func (c *Circuit) sameGate(id int, k Kind, arg int, kids []int32) bool {
	have := c.children[c.childStart[id]:c.childStart[id+1]]
	if Kind(c.kind[id]) != k || len(have) != len(kids) {
		return false
	}
	if k != KindPerm {
		whole := [2]int32{0, int32(len(kids))}
		return slices.Equal(have, kids) || c.unique.sameRuns(have, kids, nil, nil, whole[:])
	}
	a, b := c.perms[c.arg[id]], c.perms[arg]
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	// Cells are laid out column-major, so equal permanents have equal column
	// runs and, within each, the same multiset of (row, gate).
	colsA, colsB := c.permColStart[a.colOff:a.colOff+a.cols+1], c.permColStart[b.colOff:b.colOff+b.cols+1]
	rowsA, rowsB := c.permRows[a.entOff:a.entOff+int32(len(kids))], c.permRows[b.entOff:b.entOff+int32(len(kids))]
	if !slices.Equal(colsA, colsB) {
		return false
	}
	return slices.Equal(have, kids) && slices.Equal(rowsA, rowsB) || c.unique.sameRuns(have, kids, rowsA, rowsB, colsA)
}

// sameRuns reports whether the operands x and y, each paired with its row
// when rows are given, hold the same multiset within every run
// bounds[r] ≤ j < bounds[r+1], by sorting copies of both in the scratch.
func (u *unique) sameRuns(x, y, xRows, yRows, bounds []int32) bool {
	n := len(x)
	u.scratch = slices.Grow(u.scratch[:0], 2*n)[:2*n]
	a, b := u.scratch[:n], u.scratch[n:]
	for j := range n {
		a[j], b[j] = uint64(uint32(x[j])), uint64(uint32(y[j]))
		if xRows != nil {
			a[j] |= uint64(xRows[j]) << 32
			b[j] |= uint64(yRows[j]) << 32
		}
	}
	for r := 1; r < len(bounds); r++ {
		lo, hi := bounds[r-1], bounds[r]
		slices.Sort(a[lo:hi])
		slices.Sort(b[lo:hi])
	}
	return slices.Equal(a, b)
}
