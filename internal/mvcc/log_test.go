package mvcc

import "testing"

// Two entry types, as two engine states over one session would log.
type intUndo struct {
	slot int32
	old  int
}

func (u intUndo) Slot() int32 { return u.slot }

type strUndo struct {
	slot int32
	old  string
}

func (u strUndo) Slot() int32 { return u.slot }

// state is a toy engine state: slots written in place, pre-change values
// logged while readers are pinned, the clock touched on every real change.
type state[V comparable, E Entry] struct {
	c    *Clock
	log  *Log[E]
	vals map[int32]V
	undo func(slot int32, old V) E
	old  func(E) V
}

func (s *state[V, E]) set(slot int32, v V) {
	if s.vals[slot] == v {
		return
	}
	if s.log.Logging() {
		s.log.Append(s.undo(slot, s.vals[slot]))
	}
	s.vals[slot] = v
	s.c.Touch()
}

func (s *state[V, E]) read(v *View[E], slot int32) V {
	s.c.RLock()
	defer s.c.RUnlock()
	v.Extend()
	if u, ok := v.Lookup(slot); ok {
		return s.old(u)
	}
	return s.vals[slot]
}

func twoStates() (*Clock, *state[int, intUndo], *state[string, strUndo]) {
	c := new(Clock)
	ints := &state[int, intUndo]{c: c, log: NewLog[intUndo](c, 16), vals: map[int32]int{1: 10, 2: 20},
		undo: func(slot int32, old int) intUndo { return intUndo{slot, old} },
		old:  func(u intUndo) int { return u.old }}
	strs := &state[string, strUndo]{c: c, log: NewLog[strUndo](c, 24), vals: map[int32]string{1: "a"},
		undo: func(slot int32, old string) strUndo { return strUndo{slot, old} },
		old:  func(u strUndo) string { return u.old }}
	return c, ints, strs
}

// write runs fn as one exclusive section and reports the epoch it committed.
func write(c *Clock, fn func()) uint64 {
	c.Lock()
	defer c.Unlock()
	fn()
	return c.Commit()
}

func TestClockCommitsOncePerWriteAcrossLogs(t *testing.T) {
	c, ints, strs := twoStates()

	// One write reaching both states is one epoch; one that changes nothing is
	// none.
	if got := write(c, func() { ints.set(1, 11); strs.set(1, "b") }); got != 1 {
		t.Fatalf("first write committed epoch %d, want 1", got)
	}
	if got := write(c, func() { ints.set(1, 11); strs.set(1, "b") }); got != 0 || c.Epoch() != 1 {
		t.Fatalf("no-op write committed %d (clock at %d), want 0 (1)", got, c.Epoch())
	}
	if got := c.Retained(); got != 0 {
		t.Fatalf("retained %d with no pins, want 0", got)
	}

	p1 := c.Pin()
	iv1, sv1 := ints.log.At(p1), strs.log.At(p1)
	// Epoch 2 touches only the int state, epoch 3 only the string state: both
	// logs must stay indexable by epoch.
	write(c, func() { ints.set(1, 12); ints.set(2, 21) })
	p2 := c.Pin()
	iv2, sv2 := ints.log.At(p2), strs.log.At(p2)
	write(c, func() { strs.set(1, "c") })
	write(c, func() { ints.set(1, 13) })

	for _, tc := range []struct {
		name           string
		iv             *View[intUndo]
		sv             *View[strUndo]
		int1, int2     int
		str1           string
		wantViewsEpoch uint64
	}{
		{"first pin", &iv1, &sv1, 11, 20, "b", p1},
		{"second pin", &iv2, &sv2, 12, 21, "b", p2},
	} {
		if tc.iv.Epoch() != tc.wantViewsEpoch || tc.sv.Epoch() != tc.wantViewsEpoch {
			t.Errorf("%s: views at %d/%d, want %d", tc.name, tc.iv.Epoch(), tc.sv.Epoch(), tc.wantViewsEpoch)
		}
		if a, b, s := ints.read(tc.iv, 1), ints.read(tc.iv, 2), strs.read(tc.sv, 1); a != tc.int1 || b != tc.int2 || s != tc.str1 {
			t.Errorf("%s: resolved (%d, %d, %q), want (%d, %d, %q)", tc.name, a, b, s, tc.int1, tc.int2, tc.str1)
		}
	}

	// Releasing the older pin truncates both logs up to the newer one, which
	// still resolves.
	before := c.Retained()
	c.Unpin(p1)
	if after := c.Retained(); after >= before {
		t.Errorf("retained %d after releasing the oldest pin, want < %d", after, before)
	}
	if a, s := ints.read(&iv2, 1), strs.read(&sv2, 1); a != 12 || s != "b" {
		t.Errorf("second pin resolves (%d, %q) after truncation, want (12, \"b\")", a, s)
	}
	c.Unpin(p2)
	if got := c.Retained(); got != 0 {
		t.Fatalf("retained %d after all pins released, want 0", got)
	}
	for i := 0; i < 100; i++ {
		write(c, func() { ints.set(1, 100+i); strs.set(1, "x") })
	}
	if got := c.Retained(); got != 0 {
		t.Fatalf("retained %d after pin-free commits, want 0", got)
	}
}

func TestPinFreeCommitDropsOpenTransitionsAndRecycles(t *testing.T) {
	c, ints, strs := twoStates()
	// The transitions a pinned write commits in both logs …
	p := c.Pin()
	write(c, func() { ints.set(1, 11); strs.set(1, "b") })
	if c.Retained() == 0 {
		t.Fatal("transitions not counted while pinned")
	}
	// … are dropped with the last pin, and their buffers reused by the next
	// pinned write instead of allocated.
	c.Unpin(p)
	if got := c.Retained(); got != 0 {
		t.Fatalf("retained %d after the last pin, want 0", got)
	}
	if len(ints.log.free) != 1 || len(strs.log.free) != 1 {
		t.Fatalf("freelists hold %d/%d buffers, want 1/1", len(ints.log.free), len(strs.log.free))
	}
	p = c.Pin()
	write(c, func() { ints.set(1, 12); strs.set(1, "c") })
	if len(ints.log.free) != 0 || len(strs.log.free) != 0 {
		t.Fatal("pinned write did not reuse the recycled buffers")
	}
	c.Unpin(p)
	// A pin-free commit seals nothing: the open transitions are recycled on the
	// spot.
	write(c, func() { ints.set(1, 13); strs.set(1, "d") })
	if got := c.Retained(); got != 0 || len(ints.log.trans) != 0 || len(strs.log.trans) != 0 {
		t.Fatalf("pin-free commit kept history: retained %d, %d/%d transitions", got, len(ints.log.trans), len(strs.log.trans))
	}
}

func TestPinCounts(t *testing.T) {
	c, ints, _ := twoStates()
	a, b := c.Pin(), c.Pin()
	if a != b || c.Pins() != 2 {
		t.Fatalf("two pins at one epoch: %d and %d, Pins() = %d", a, b, c.Pins())
	}
	write(c, func() { ints.set(1, 11) })
	c.Unpin(a)
	if c.Retained() == 0 {
		t.Fatal("history dropped while a pin at its epoch remains")
	}
	c.Unpin(b)
	if c.Retained() != 0 || c.Pins() != 0 {
		t.Fatal("history or pins left after the last Unpin")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unpin of an unpinned epoch did not panic")
		}
		// The panic must not leave the clock locked.
		c.Pin()
	}()
	c.Unpin(b)
}

func TestReleasedViewStopsFollowing(t *testing.T) {
	c, ints, _ := twoStates()
	p := c.Pin()
	v := ints.log.At(p)
	write(c, func() { ints.set(1, 11) })
	if got := ints.read(&v, 1); got != 10 {
		t.Fatalf("pinned view reads %d, want 10", got)
	}
	c.Unpin(p)
	// History past the pin is gone; the view must not walk it, and keeps
	// answering what it digested.
	write(c, func() { ints.set(1, 12); ints.set(2, 22) })
	q := c.Pin()
	write(c, func() { ints.set(2, 23) })
	if got := ints.read(&v, 1); got != 10 {
		t.Fatalf("released view reads slot 1 as %d, want its digested 10", got)
	}
	if v.digested != p+1 {
		t.Fatalf("released view digested up to %d, want %d", v.digested, p+1)
	}
	c.Unpin(q)
}
