package mvcc

import "slices"

// Entry is one undo entry: the pre-change state of the slot it names.
type Entry interface{ Slot() int32 }

// Log is the undo history one engine state contributes to its Clock: per
// commit made while readers are pinned, the entries the state appended during
// that write.  Every method is called with the Clock held (exclusively to
// Append, at least shared to resolve a View).
type Log[E Entry] struct {
	c          *Clock
	entryBytes int64 // approximate in-memory size of one undo entry

	base  uint64           // epoch of trans[0]: trans[i] holds the undo entries of transition (base+i) → (base+i+1)
	trans []*transition[E] // nil where a commit logged nothing in this state
	cur   *transition[E]   // entries of the write in progress, nil when none logged
	free  []*transition[E]
}

type transition[E any] struct{ entries []E }

// maxFreeBuffers bounds the recycled-buffer pool: enough to absorb the
// steady-state churn of a few concurrent transitions without retaining an
// unbounded tail after a burst.
const maxFreeBuffers = 8

// NewLog attaches a new undo log to c; entryBytes is the approximate size of
// one entry, for Clock.Retained.
func NewLog[E Entry](c *Clock, entryBytes int64) *Log[E] {
	l := &Log[E]{c: c, entryBytes: entryBytes}
	c.Lock()
	c.logs = append(c.logs, l)
	c.Unlock()
	return l
}

// Logging reports whether undo entries must be recorded for the write in
// progress, i.e. whether any reader is pinned.  Writers check this once per
// touched slot; with no readers the answer is false and the mutation path
// does no extra work.
func (l *Log[E]) Logging() bool { return l.c.npins > 0 }

// Append records one undo entry for the write in progress.  Call only when
// Logging reports true.
func (l *Log[E]) Append(e E) {
	if l.cur == nil {
		if n := len(l.free); n > 0 {
			l.cur, l.free[n-1] = l.free[n-1], nil
			l.free = l.free[:n-1]
		} else {
			l.cur = &transition[E]{}
		}
	}
	l.cur.entries = append(l.cur.entries, e)
}

func (l *Log[E]) seal(epoch uint64, keep bool) {
	t := l.cur
	l.cur = nil
	if !keep {
		l.recycle(t)
		return
	}
	if len(l.trans) == 0 {
		// Re-anchor: pin-free commits advanced the counter without retaining
		// transitions, so an empty history starts here.
		l.base = epoch
	}
	l.trans = append(l.trans, t)
}

// truncate recycles the dropped buffers.  Every write that appends entries
// commits, so no transition is open while the clock is free to truncate.
func (l *Log[E]) truncate(min uint64) {
	k := 0
	for k < len(l.trans) && l.base+uint64(k) < min {
		l.recycle(l.trans[k])
		k++
	}
	l.trans = slices.Delete(l.trans, 0, k)
	l.base += uint64(k)
}

func (l *Log[E]) retained() int64 {
	var n int64
	for _, t := range l.trans {
		if t != nil {
			n += int64(cap(t.entries))
		}
	}
	return n * l.entryBytes
}

func (l *Log[E]) recycle(t *transition[E]) {
	if t == nil {
		return
	}
	t.entries = t.entries[:0]
	if len(l.free) < maxFreeBuffers {
		l.free = append(l.free, t)
	}
}

// View resolves one engine state as of a pinned epoch, through a first-wins
// digest of the undo entries committed since.  A View belongs to one reader
// goroutine and holds no pin of its own: it follows the log for as long as
// its epoch is pinned on the clock, and once the pin is released it stops
// and keeps answering from what it has digested (the history it would need
// may be truncated).
type View[E Entry] struct {
	l        *Log[E]
	epoch    uint64 // the pinned epoch this view resolves
	digested uint64 // undo history of epochs [epoch, digested) is folded into digest
	digest   map[int32]E
}

// At returns a view of the log's state at epoch, which the caller has pinned
// on the log's clock.
func (l *Log[E]) At(epoch uint64) View[E] { return View[E]{l: l, epoch: epoch, digested: epoch} }

// Epoch returns the epoch the view resolves.
func (v *View[E]) Epoch() uint64 { return v.epoch }

// Extend folds the undo entries committed since the last call into the
// digest.  First entry per slot wins: walking the chain forwards from the
// pin, the first pre-change state recorded for a slot is its state at the
// pinned epoch.  The caller holds the clock at least shared.
func (v *View[E]) Extend() {
	l := v.l
	now := l.c.epoch.Load()
	if v.digested == now || l.c.pins[v.epoch] == 0 {
		return
	}
	if v.digest == nil {
		v.digest = make(map[int32]E)
	}
	for e := v.digested; e < now; e++ {
		t := l.trans[e-l.base]
		if t == nil {
			continue
		}
		for _, u := range t.entries {
			if _, ok := v.digest[u.Slot()]; !ok {
				v.digest[u.Slot()] = u
			}
		}
	}
	v.digested = now
}

// Lookup returns the undo entry that holds slot's state at the view's epoch,
// or ok=false when nothing digested so far touched the slot and the current
// state is the pinned one.  Call it after Extend, under the same lock.
func (v *View[E]) Lookup(slot int32) (E, bool) {
	u, ok := v.digest[slot]
	return u, ok
}
