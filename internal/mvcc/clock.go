// Package mvcc provides the epoch bookkeeping behind snapshot reads over the
// incrementally maintained engines: one Clock per session — commit counter,
// reader pins, reader/writer lock — and one undo Log per engine state
// attached to it, keeping just enough history alive to resolve any pinned
// epoch.
//
// The design follows the copy-on-write version chains of factorised-database
// engines: the writer keeps mutating its single current state in place, and
// for every commit made while readers are pinned it records the pre-change
// value of each touched slot ("undo entries" — exactly the wave scratch the
// engines already compute).  A reader pinned at epoch P recovers the value of
// slot g at P as the *first* undo entry for g among the transitions
// P→P+1, …, C−1→C, falling back to the current state when no transition
// touched g (View).  Once the oldest pin is released, the history before the
// new minimum is truncated and its buffers recycled, so the writer's steady
// state with no readers stays allocation-free.
//
// A version chain needs one version counter per database state, not one per
// view of it: the engine states that evaluate a session's one Program (its
// value in a semiring, its answer set in the free semiring) share one Clock,
// so a write is one exclusive section that commits once and a reader is one
// pin that every state resolves.
package mvcc

import (
	"sync"
	"sync/atomic"
)

// Clock is the version state of one session.  The embedded lock orders
// writers against readers for every attached engine state: a write holds it
// exclusively from its first leaf assignment to its Commit, resolution
// through a View holds it shared.  The zero value is ready to use; NewLog
// attaches an engine state's undo log, all of them before the first Pin.
type Clock struct {
	sync.RWMutex

	// epoch is the committed epoch C.  It changes only under the exclusive
	// lock and is atomic so Epoch can be read without any.
	epoch atomic.Uint64
	dirty bool           // some attached state changed since the last commit
	pins  map[uint64]int // pinned epoch → reader count
	npins int
	logs  []history
}

// history is what the Clock drives on every attached Log, whatever its entry
// type: seal closes the open transition epoch → epoch+1 (retained when keep,
// dropped otherwise); truncate drops the transitions older than min.
type history interface {
	seal(epoch uint64, keep bool)
	truncate(min uint64)
	retained() int64
}

// Epoch returns the current committed epoch.  It takes no lock.
func (c *Clock) Epoch() uint64 { return c.epoch.Load() }

// Touch marks the write in progress as having changed some attached state,
// so that Commit seals it as an epoch.  The caller holds the clock
// exclusively.
func (c *Clock) Touch() { c.dirty = true }

// HeadPinned reports whether a reader is pinned at the committed epoch, the
// one a write in progress supersedes.  The caller holds the clock exclusively.
func (c *Clock) HeadPinned() bool { return c.pins[c.epoch.Load()] > 0 }

// Commit ends a write: if any attached state was touched, the open
// transition of every attached log is sealed as the one epoch C → C+1 — kept
// while readers are pinned (possibly empty, so transitions stay indexable by
// epoch), dropped on the spot otherwise — and the counter advances.  A write
// that changed nothing commits nothing.  Commit returns the epoch it
// committed (the first is 1), or 0 when it committed none; the caller holds
// the clock exclusively.
func (c *Clock) Commit() uint64 {
	if !c.dirty {
		return 0
	}
	c.dirty = false
	epoch := c.epoch.Load()
	for _, l := range c.logs {
		l.seal(epoch, c.npins > 0)
	}
	c.epoch.Store(epoch + 1)
	return epoch + 1
}

// Pin registers a reader at the current committed epoch and returns that
// epoch.  Every attached log retains its history from the returned epoch on
// until Unpin.
func (c *Clock) Pin() uint64 {
	c.Lock()
	epoch := c.epoch.Load()
	if c.pins == nil {
		c.pins = make(map[uint64]int)
	}
	c.pins[epoch]++
	c.npins++
	c.Unlock()
	return epoch
}

// Unpin releases one reader pin taken at the given epoch and truncates the
// history no remaining pin needs, in every attached log.  Unpinning an epoch
// that is not pinned panics: it indicates a double release.
func (c *Clock) Unpin(epoch uint64) {
	c.Lock()
	defer c.Unlock()
	n, ok := c.pins[epoch]
	if !ok {
		panic("mvcc: Unpin of an epoch that is not pinned")
	}
	if n == 1 {
		delete(c.pins, epoch)
	} else {
		c.pins[epoch] = n - 1
	}
	c.npins--
	min := c.epoch.Load()
	for e := range c.pins {
		if e < min {
			min = e
		}
	}
	for _, l := range c.logs {
		l.truncate(min)
	}
}

// Pins returns the number of outstanding reader pins.
func (c *Clock) Pins() int {
	c.RLock()
	defer c.RUnlock()
	return c.npins
}

// Retained reports the memory held by live undo history across the attached
// logs (0 when no reader is pinned).  Recycled buffers waiting in the bounded
// freelists are not counted: they are capped capital, not history.
func (c *Clock) Retained() int64 {
	c.RLock()
	defer c.RUnlock()
	var n int64
	for _, l := range c.logs {
		n += l.retained()
	}
	return n
}
