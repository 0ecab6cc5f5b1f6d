// Package live is the push half of aggserve's materialized-view story: a
// per-session Hub that turns committed MVCC epochs into fan-out
// notifications for subscribers watching the session's aggregate value, a
// point of it, its answer count, or its answer-set delta.
//
// The design center is the writer/reader decoupling the paper's O(log n)
// update bound deserves:
//
//   - The writer's only obligation is Notify(epoch) after each commit.  With
//     zero subscribers that is one atomic load and a return — no clock read,
//     no allocation — so an unobserved session pays nothing.
//   - One evaluator goroutine per hub evaluates at most once per epoch per
//     distinct subscription key, from a snapshot the session layer pins, and
//     shares the result across every subscriber of that key.
//   - Each subscriber owns a bounded one-slot mailbox where the latest epoch
//     wins: a slow consumer coalesces intermediate epochs (deltas merge into
//     a net change, scalar kinds keep only the newest value) and can never
//     apply backpressure to the writer or to other subscribers.
package live

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed terminates Sub.Next when the hub shuts down (session closed).
var ErrClosed = errors.New("live: hub closed")

// ErrSubClosed terminates Sub.Next after the subscription itself was closed.
var ErrSubClosed = errors.New("live: subscription closed")

// Kind selects what a subscription watches.
type Kind uint8

const (
	// KindValue watches the closed query's value.
	KindValue Kind = iota
	// KindPoint watches the query value at one fixed argument tuple.
	KindPoint
	// KindCount watches the answer count of an enumerable query.
	KindCount
	// KindDelta watches the answer set of an enumerable query as
	// added/removed tuples per epoch.
	KindDelta
)

// String names the kind the way the wire surface spells it.
func (k Kind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindPoint:
		return "point"
	case KindCount:
		return "count"
	case KindDelta:
		return "delta"
	}
	return "unknown"
}

// Key identifies what a subscriber watches.  Subscribers with equal keys
// share one evaluation per epoch.
type Key struct {
	Kind Kind
	// Args is the encoded point-argument tuple (EncodeArgs), empty for the
	// other kinds.
	Args string
}

// EncodeArgs canonicalises a tuple into a map key: the Key.Args form of a
// point-argument tuple, and the identity of an answer in a delta set.
func EncodeArgs(args []int) string {
	if len(args) == 0 {
		return ""
	}
	b := make([]byte, 0, len(args)*4)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	return string(b)
}

// Request is one key the evaluator must evaluate this round.  Full asks for
// the complete answer set alongside the incremental delta, because at least
// one subscriber of the key needs an initial (or reset) snapshot.
type Request struct {
	Key  Key
	Full bool
}

// Result is one key's evaluation at one committed epoch.
type Result struct {
	Epoch uint64
	// Value holds the query value for KindValue/KindPoint.
	Value string
	// Count holds the answer count for KindCount.
	Count int64
	// Full marks a delta reset: Answers carries the complete answer set.
	Full    bool
	Answers [][]int
	// Added and Removed carry the net answer-set change since the previous
	// evaluated epoch for KindDelta.
	Added   [][]int
	Removed [][]int
	// Increments reports whether Added/Removed are valid relative to the
	// previous evaluated epoch.  On a key's first evaluation it is false and
	// Full must be set: every subscriber then takes the reset.
	Increments bool
	// Stamp is the wall-clock (UnixNano) of the commit notification that
	// triggered this evaluation, 0 when the evaluation was not driven by a
	// fresh commit (initial snapshots).  It feeds push-latency metrics.
	Stamp int64
	// Coalesced reports, on delivery, how many earlier evaluated results
	// were folded into this one because the subscriber lagged.
	Coalesced uint64
	// Err is a terminal per-key evaluation error.
	Err error
}

// EvalFunc evaluates every requested key at one pinned snapshot and returns
// the snapshot's epoch plus one Result per request, aligned by index.  It is
// only ever called from the hub's single evaluator goroutine.
type EvalFunc func(reqs []Request) (uint64, []Result, error)

// Hub fans committed epochs out to the subscribers of one session.
type Hub struct {
	eval EvalFunc

	mu     sync.Mutex
	subs   map[*Sub]struct{}
	closed bool

	// nsubs mirrors len(subs) for the writer's lock-free Notify fast path.
	nsubs    atomic.Int32
	initials atomic.Int32

	latest atomic.Uint64
	stamp  atomic.Int64
	wake   chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// evaluated is the highest epoch already fanned out; evaluator
	// goroutine only.
	evaluated uint64

	pushes    atomic.Int64
	coalesced atomic.Int64
}

// NewHub starts a hub (and its evaluator goroutine) around an EvalFunc.
func NewHub(eval EvalFunc) *Hub {
	h := &Hub{
		eval: eval,
		subs: make(map[*Sub]struct{}),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go h.run()
	return h
}

// Notify tells the hub that the session committed the given epoch.  With no
// subscribers it is one atomic load; it never blocks and never allocates.
func (h *Hub) Notify(epoch uint64) {
	if h.nsubs.Load() == 0 {
		return
	}
	h.stamp.Store(time.Now().UnixNano())
	for {
		cur := h.latest.Load()
		if epoch <= cur || h.latest.CompareAndSwap(cur, epoch) {
			break
		}
	}
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Subscribe registers a subscriber for one key.  With initial true the
// subscriber is owed a snapshot of the current state even if no commit
// arrives; with initial false delivery starts at the first epoch after
// resume (the epoch the client reports having seen).
func (h *Hub) Subscribe(key Key, resume uint64, initial bool) (*Sub, error) {
	s := &Sub{
		h:       h,
		key:     key,
		signal:  make(chan struct{}, 1),
		initial: initial,
	}
	if !initial {
		s.last = resume
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	h.subs[s] = struct{}{}
	h.nsubs.Add(1)
	h.mu.Unlock()
	if initial {
		h.initials.Add(1)
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
	return s, nil
}

// Subscribers reports the number of live subscriptions.
func (h *Hub) Subscribers() int { return int(h.nsubs.Load()) }

// Pushes reports results offered to mailboxes since the hub started.
func (h *Hub) Pushes() int64 { return h.pushes.Load() }

// Coalesced reports offers that merged into an undelivered mailbox slot.
func (h *Hub) Coalesced() int64 { return h.coalesced.Load() }

// Close terminates every subscription (their pending update, if any, is
// still delivered first, then Next returns ErrClosed) and stops the
// evaluator.  Close blocks until the evaluator goroutine has exited and is
// idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for s := range h.subs {
			s.terminate(ErrClosed)
		}
	}
	h.mu.Unlock()
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

func (h *Hub) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		case <-h.wake:
		}
		for h.initials.Load() > 0 || h.latest.Load() > h.evaluated {
			if !h.evalOnce() {
				return
			}
			select {
			case <-h.stop:
				return
			default:
			}
		}
	}
}

// evalOnce evaluates all current keys at one snapshot and offers the results
// to their subscribers.  It returns false when the hub must shut down.
func (h *Hub) evalOnce() bool {
	target := h.latest.Load()
	stamp := h.stamp.Load()

	type group struct {
		req  Request
		subs []*Sub
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	if len(h.subs) == 0 {
		if target > h.evaluated {
			h.evaluated = target
		}
		h.mu.Unlock()
		return true
	}
	byKey := make(map[Key]*group)
	var order []*group
	for s := range h.subs {
		s.mu.Lock()
		closed, init := s.closed, s.initial
		s.mu.Unlock()
		if closed {
			continue
		}
		g := byKey[s.key]
		if g == nil {
			g = &group{req: Request{Key: s.key}}
			byKey[s.key] = g
			order = append(order, g)
		}
		g.subs = append(g.subs, s)
		if init {
			g.req.Full = true
		}
	}
	h.mu.Unlock()
	if len(order) == 0 {
		if target > h.evaluated {
			h.evaluated = target
		}
		return true
	}

	reqs := make([]Request, len(order))
	for i, g := range order {
		reqs[i] = g.req
	}
	epoch, results, err := h.eval(reqs)
	if err != nil {
		h.fail(err)
		return false
	}
	// Stamp only results driven by a fresh commit; a pure initial-snapshot
	// round has no commit to measure push latency against.
	var stampOut int64
	if epoch > h.evaluated {
		stampOut = stamp
	}
	for i, g := range order {
		r := results[i]
		r.Stamp = stampOut
		if r.Err != nil {
			for _, s := range g.subs {
				s.terminate(r.Err)
			}
			continue
		}
		for _, s := range g.subs {
			s.offer(r)
		}
	}
	if epoch > h.evaluated {
		h.evaluated = epoch
	}
	return true
}

// fail terminates every subscriber with the evaluation error and closes the
// hub to new subscriptions.
func (h *Hub) fail(err error) {
	h.mu.Lock()
	h.closed = true
	for s := range h.subs {
		s.terminate(err)
	}
	h.mu.Unlock()
}

// Sub is one subscription: a one-slot mailbox where the latest epoch wins.
type Sub struct {
	h   *Hub
	key Key

	signal chan struct{}

	mu        sync.Mutex
	closed    bool
	err       error
	initial   bool
	last      uint64 // highest epoch offered
	has       bool
	coalesced uint64
	box       box
}

// box is the pending (undelivered) state of a mailbox.  Delta increments are
// kept as net tuple maps so consecutive epochs merge in O(change), and a
// pending full reset absorbs increments in place.
type box struct {
	epoch uint64
	stamp int64
	value string
	count int64
	full  bool
	set   map[string][]int
	add   map[string][]int
	rem   map[string][]int
}

func tupleMap(ts [][]int) map[string][]int {
	m := make(map[string][]int, len(ts))
	for _, t := range ts {
		m[EncodeArgs(t)] = t
	}
	return m
}

func sortedTuples(m map[string][]int) [][]int {
	if len(m) == 0 {
		return nil
	}
	out := make([][]int, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// offer merges one evaluated result into the mailbox.  The evaluator is the
// only caller.
func (s *Sub) offer(r Result) {
	s.mu.Lock()
	if s.closed || s.err != nil {
		s.mu.Unlock()
		return
	}
	if !s.initial && r.Epoch <= s.last {
		s.mu.Unlock()
		return
	}
	reset := s.initial || (s.key.Kind == KindDelta && !r.Increments)
	if reset && s.key.Kind == KindDelta && !r.Full {
		// This subscriber needs the full answer set (it joined after the
		// round's requests were collected) but the result lacks one; the
		// evaluator will run another round for it (initials is still
		// non-zero).
		s.mu.Unlock()
		return
	}
	wasInitial := s.initial
	if s.has {
		s.coalesced++
		s.h.coalesced.Add(1)
	}
	s.merge(r, reset)
	s.has = true
	if r.Epoch > s.last {
		s.last = r.Epoch
	}
	if wasInitial {
		s.initial = false
		s.h.initials.Add(-1)
	}
	s.h.pushes.Add(1)
	s.mu.Unlock()
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// merge folds a result into the box; the caller holds s.mu.
func (s *Sub) merge(r Result, reset bool) {
	s.box.epoch = r.Epoch
	s.box.stamp = r.Stamp
	switch s.key.Kind {
	case KindValue, KindPoint:
		s.box.value = r.Value
	case KindCount:
		s.box.count = r.Count
	case KindDelta:
		switch {
		case reset:
			// Initial or resume-reset delivery: the full current answer set
			// replaces anything pending.
			s.box.full = true
			s.box.set = tupleMap(r.Answers)
			s.box.add, s.box.rem = nil, nil
		case s.box.full:
			// A pending reset absorbs increments in place.
			for _, t := range r.Added {
				s.box.set[EncodeArgs(t)] = t
			}
			for _, t := range r.Removed {
				delete(s.box.set, EncodeArgs(t))
			}
		default:
			if s.box.add == nil {
				s.box.add = make(map[string][]int, len(r.Added))
			}
			if s.box.rem == nil {
				s.box.rem = make(map[string][]int, len(r.Removed))
			}
			// Net-merge consecutive deltas: an add cancels a pending remove
			// and vice versa.
			for _, t := range r.Added {
				k := EncodeArgs(t)
				if _, ok := s.box.rem[k]; ok {
					delete(s.box.rem, k)
				} else {
					s.box.add[k] = t
				}
			}
			for _, t := range r.Removed {
				k := EncodeArgs(t)
				if _, ok := s.box.add[k]; ok {
					delete(s.box.add, k)
				} else {
					s.box.rem[k] = t
				}
			}
		}
	}
}

// terminate sets the subscription's terminal error; a pending update is
// still delivered before Next reports it.
func (s *Sub) terminate(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.err == nil {
		s.err = err
	}
	if s.initial {
		s.initial = false
		s.h.initials.Add(-1)
	}
	s.mu.Unlock()
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// Next blocks for the next coalesced update.  It returns the subscription's
// terminal error (ErrClosed after hub shutdown, ErrSubClosed after Close, a
// per-key evaluation error otherwise) once no update is pending, or the
// context's error when ctx ends first.
func (s *Sub) Next(ctx context.Context) (Result, error) {
	for {
		s.mu.Lock()
		if s.has {
			r := s.take()
			s.mu.Unlock()
			return r, nil
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return Result{}, err
		}
		if s.closed {
			s.mu.Unlock()
			return Result{}, ErrSubClosed
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-s.signal:
		}
	}
}

// take materialises and clears the pending box; the caller holds s.mu.
func (s *Sub) take() Result {
	r := Result{
		Epoch:     s.box.epoch,
		Stamp:     s.box.stamp,
		Coalesced: s.coalesced,
	}
	switch s.key.Kind {
	case KindValue, KindPoint:
		r.Value = s.box.value
	case KindCount:
		r.Count = s.box.count
	case KindDelta:
		if s.box.full {
			r.Full = true
			r.Answers = sortedTuples(s.box.set)
		} else {
			r.Added = sortedTuples(s.box.add)
			r.Removed = sortedTuples(s.box.rem)
		}
	}
	s.box = box{}
	s.has = false
	s.coalesced = 0
	return r
}

// Close unsubscribes.  Idempotent; a concurrent or later Next returns
// ErrSubClosed (after delivering nothing further).
func (s *Sub) Close() {
	s.h.mu.Lock()
	if _, ok := s.h.subs[s]; ok {
		delete(s.h.subs, s)
		s.h.nsubs.Add(-1)
	}
	s.h.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.initial {
			s.initial = false
			s.h.initials.Add(-1)
		}
	}
	s.mu.Unlock()
	select {
	case s.signal <- struct{}{}:
	default:
	}
}
