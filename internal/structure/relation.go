package structure

import "slices"

// Relation is one relation of a Structure: its tuples in insertion order and
// an integer index over them, after the factorised representations of
// Olteanu and Závodný — a trie of depth two.  For each first element a, the
// tuples (a, ā) are stored as the sorted run of their tails ā; a binary
// relation also keeps, for each second element b, the sorted run of the heads
// a of its tuples (a, b); a unary relation is a dense bitmap.  A membership
// test is a bounds check and a binary search inside one run: it formats and
// hashes nothing.
//
// A *Relation obtained from Structure.Relation is a read-only handle on an
// immutable structure; only a Builder writes to a relation.
type Relation struct {
	arity, n int
	// tuples lists the tuples in insertion order, each a window of an element
	// arena capped at its own length.
	tuples []Tuple
	// elems is the arena Builder.AddTuple appends the elements of new tuples to.
	elems []Element
	// bits is the membership bitmap of a unary relation.
	bits []uint64
	// fwd[a] is the sorted run of the tails of the tuples starting with a,
	// arity−1 elements per tuple, for arity ≥ 2; rev[b] is the sorted run of
	// the heads of the tuples (a, b) of a binary relation.  Both are nil until
	// the relation holds a tuple.
	fwd, rev [][]Element
}

// Has reports whether the relation holds the tuple.  A tuple of another
// length, or with an element outside the domain, is not held; a nil handle
// (an unknown relation) holds nothing.
func (r *Relation) Has(t ...Element) bool {
	if r == nil || len(t) != r.arity {
		return false
	}
	for _, e := range t {
		if uint(e) >= uint(r.n) {
			return false
		}
	}
	if r.arity == 1 {
		return r.bits != nil && r.bits[t[0]>>6]&(1<<(uint(t[0])&63)) != 0
	}
	if r.fwd == nil {
		return false
	}
	_, found := searchRun(r.fwd[t[0]], t[1:])
	return found
}

// Forward returns the sorted run of the tails ā of the tuples (a, ā),
// arity−1 elements per tuple: for a binary relation, the elements b with
// (a, b) in the relation.  It is empty for a unary relation and for a outside
// the domain, and must not be modified.
func (r *Relation) Forward(a Element) []Element {
	if r == nil || r.fwd == nil || uint(a) >= uint(r.n) {
		return nil
	}
	return r.fwd[a]
}

// Reverse returns, for a binary relation, the sorted elements a with (a, b)
// in the relation.  It is empty for other arities and for b outside the
// domain, and must not be modified.
func (r *Relation) Reverse(b Element) []Element {
	if r == nil || r.rev == nil || uint(b) >= uint(r.n) {
		return nil
	}
	return r.rev[b]
}

// searchRun finds a tail in a sorted run of tails of its length: the index of
// its entry, or of the entry it would be inserted before.
func searchRun(run, tail []Element) (int, bool) {
	s := len(tail)
	if s == 1 {
		return slices.BinarySearch(run, tail[0])
	}
	lo, hi := 0, len(run)/s
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if slices.Compare(run[m*s:m*s+s], tail) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(run)/s && slices.Equal(run[lo*s:lo*s+s], tail)
}

// add inserts a tuple of the relation's arity over its domain; a duplicate is
// ignored.
func (r *Relation) add(t []Element) {
	if r.arity == 1 {
		if r.bits == nil {
			r.bits = make([]uint64, (r.n+63)/64)
		}
		w, bit := t[0]>>6, uint64(1)<<(uint(t[0])&63)
		if r.bits[w]&bit != 0 {
			return
		}
		r.bits[w] |= bit
	} else {
		if r.fwd == nil {
			r.fwd = make([][]Element, r.n)
			if r.arity == 2 {
				r.rev = make([][]Element, r.n)
			}
		}
		i, found := searchRun(r.fwd[t[0]], t[1:])
		if found {
			return
		}
		r.fwd[t[0]] = slices.Insert(r.fwd[t[0]], i*(r.arity-1), t[1:]...)
		if r.rev != nil {
			j, _ := slices.BinarySearch(r.rev[t[1]], t[0])
			r.rev[t[1]] = slices.Insert(r.rev[t[1]], j, t[0])
		}
	}
	r.elems = append(r.elems, t...)
	end := len(r.elems)
	r.tuples = append(r.tuples, r.elems[end-len(t):end:end])
}

// remove deletes a tuple if the relation holds it.  The index is updated by a
// binary search in one run (two for a binary relation); the insertion list is
// scanned.
func (r *Relation) remove(t []Element) {
	if !r.Has(t...) {
		return
	}
	if r.arity == 1 {
		r.bits[t[0]>>6] &^= 1 << (uint(t[0]) & 63)
	} else {
		s := r.arity - 1
		i, _ := searchRun(r.fwd[t[0]], t[1:])
		r.fwd[t[0]] = slices.Delete(r.fwd[t[0]], i*s, i*s+s)
		if r.rev != nil {
			j, _ := slices.BinarySearch(r.rev[t[1]], t[0])
			r.rev[t[1]] = slices.Delete(r.rev[t[1]], j, j+1)
		}
	}
	kept := r.tuples[:0]
	for _, u := range r.tuples {
		if !u.Equal(t) {
			kept = append(kept, u)
		}
	}
	clear(r.tuples[len(kept):])
	r.tuples = kept
}

// clone copies the relation in bulk, for Edit: the tuples into one arena,
// the runs into another and the bitmap.  Every window is capped at its
// length, so a later write to the copy reallocates what it grows instead of
// clobbering a neighbour or the original.
func (r *Relation) clone() Relation {
	c := Relation{arity: r.arity, n: r.n, bits: slices.Clone(r.bits), fwd: cloneRuns(r.fwd), rev: cloneRuns(r.rev)}
	k := r.arity
	c.elems, c.tuples = make([]Element, 0, len(r.tuples)*k), make([]Tuple, len(r.tuples))
	for i, t := range r.tuples {
		c.elems = append(c.elems, t...)
		c.tuples[i] = c.elems[i*k : i*k+k : i*k+k]
	}
	return c
}

// cloneRuns copies runs into one arena.
func cloneRuns(runs [][]Element) [][]Element {
	if runs == nil {
		return nil
	}
	size := 0
	for _, run := range runs {
		size += len(run)
	}
	arena, out := make([]Element, 0, size), make([][]Element, len(runs))
	for a, run := range runs {
		if len(run) > 0 {
			arena = append(arena, run...)
			out[a] = arena[len(arena)-len(run) : len(arena) : len(arena)]
		}
	}
	return out
}
