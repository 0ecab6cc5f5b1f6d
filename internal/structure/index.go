package structure

import "slices"

// TupleIndex numbers the (head, tuple) pairs added to it densely, in the
// order they are first added.  The head is a small integer the caller gives a
// meaning — a weight symbol, or a symbol and a role — and the tuples sit in
// one integer arena: Find hashes a pair's integers and probes an
// open-addressing table, so it formats nothing and allocates nothing.  The
// zero TupleIndex is empty and ready to use.
type TupleIndex struct {
	heads []int32
	ends  []int32 // entry i's tuple is elems[ends[i-1]:ends[i]], from 0 for i = 0
	elems []Element
	// slots holds entry numbers plus one, 0 in a free slot; its length is a
	// power of two and at least twice the number of entries.
	slots []int32
}

// Len returns the number of entries.
func (x *TupleIndex) Len() int { return len(x.heads) }

// Head returns the head of entry i.
func (x *TupleIndex) Head(i int) int32 { return x.heads[i] }

// Tuple returns the tuple of entry i, a view into the arena that must not be
// modified.
func (x *TupleIndex) Tuple(i int) Tuple {
	lo := int32(0)
	if i > 0 {
		lo = x.ends[i-1]
	}
	return x.elems[lo:x.ends[i]:x.ends[i]]
}

// Find returns the number of the entry (head, t), or -1 when there is none.
func (x *TupleIndex) Find(head int32, t Tuple) int {
	mask := len(x.slots) - 1
	for s := hashTuple(head, t) & mask; mask > 0 && x.slots[s] != 0; s = (s + 1) & mask {
		if i := int(x.slots[s]) - 1; x.heads[i] == head && x.Tuple(i).Equal(t) {
			return i
		}
	}
	return -1
}

// Add returns the number of the entry (head, t), appending it, with a copy of
// t, when it is new.
func (x *TupleIndex) Add(head int32, t Tuple) (i int, added bool) {
	if i = x.Find(head, t); i >= 0 {
		return i, false
	}
	i = len(x.heads)
	x.heads, x.elems = append(x.heads, head), append(x.elems, t...)
	x.ends = append(x.ends, int32(len(x.elems)))
	if 2*len(x.heads) > len(x.slots) {
		x.slots = make([]int32, max(16, 2*len(x.slots)))
		for j := range i {
			x.place(j)
		}
	}
	x.place(i)
	return i, true
}

// place puts entry i into the first free slot of its probe sequence.
func (x *TupleIndex) place(i int) {
	mask := len(x.slots) - 1
	s := hashTuple(x.heads[i], x.Tuple(i)) & mask
	for x.slots[s] != 0 {
		s = (s + 1) & mask
	}
	x.slots[s] = int32(i + 1)
}

// Clone returns an independent copy of the index.
func (x *TupleIndex) Clone() TupleIndex {
	return TupleIndex{heads: slices.Clone(x.heads), ends: slices.Clone(x.ends), elems: slices.Clone(x.elems), slots: slices.Clone(x.slots)}
}

// Footprint returns the index's resident size in bytes.
func (x *TupleIndex) Footprint() int64 {
	return 4*int64(len(x.heads)+len(x.ends)+len(x.slots)) + 8*int64(len(x.elems))
}

// hashTuple mixes a head and the elements of a tuple into a probe start.
func hashTuple(head int32, t Tuple) int {
	h := uint64(uint32(head)) * 0x9e3779b97f4a7c15
	for _, e := range t {
		h = (h ^ uint64(e)) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int(h ^ h>>29)
}
