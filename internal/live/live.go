// Package live is the push half of a session: a Hub that turns "the source
// committed an epoch" into deliveries for whoever subscribed, without knowing
// what it delivers.  The session layer says what a subscriber watches and
// what the watched thing is at an epoch (an EvalFunc); the hub owns when that
// is asked and who is handed the result.
//
// There is one rule for every subscription: a new subscriber is owed the
// current state, and from then on the latest evaluated epoch wins its
// one-slot mailbox.
//
//   - The writer's only obligation is Notify(epoch) after each commit.  With
//     zero subscribers that is one atomic load and a return — no clock read,
//     no allocation — so an unobserved session pays nothing.
//   - One evaluator goroutine per hub runs rounds.  A round asks the EvalFunc
//     once per distinct key, at one state of the source, and shares each
//     result across the subscribers of its key; a registration and a notified
//     commit each cause (at least) one round, and a round reads the source's
//     epoch itself, so a commit that races a registration is seen by
//     construction.
//   - A slow consumer finds only the newest round in its mailbox (Coalesced
//     says how many it skipped) and can never apply backpressure to the writer
//     or to other subscribers.
package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed terminates Sub.Next once the hub shut down (session closed) or
// the subscription itself was closed.
var ErrClosed = errors.New("live: hub closed")

// EvalFunc reads every watch of one round at one state of the source and
// returns that state's epoch — never older than an epoch the source has
// passed to Notify — plus one result per watch, aligned by index.  It is only
// ever called from the hub's single evaluator goroutine.
type EvalFunc func(watches []any) (epoch uint64, states []any, err error)

// Hub fans committed epochs out to the subscribers of one session.
type Hub struct {
	eval EvalFunc

	mu     sync.Mutex
	subs   map[*Sub]struct{}
	closed bool

	// nsubs mirrors len(subs) for the writer's lock-free Notify fast path;
	// joins numbers the registrations, each of which is owed a round.
	nsubs atomic.Int32
	joins atomic.Uint64

	latest atomic.Uint64 // highest epoch notified while somebody was subscribed
	stamp  atomic.Int64  // wall clock (UnixNano) of that notification
	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}

	// evaluated is the highest epoch a round has covered and served the
	// registrations it has; evaluator goroutine only.
	evaluated, served uint64
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
	kick(h.wake)
}

// kick leaves a wake-up in a one-slot channel unless one is waiting there.
func kick(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Subscribe registers a subscriber and wakes the evaluator for the round it
// is owed.  Subscribers with equal keys (key must be comparable) share one
// evaluation per round, for which the EvalFunc is handed the watch of one of
// them.
func (h *Hub) Subscribe(key, watch any) (*Sub, error) {
	s := &Sub{h: h, key: key, watch: watch, signal: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	h.subs[s] = struct{}{}
	h.nsubs.Add(1)
	h.joins.Add(1)
	h.mu.Unlock()
	kick(h.wake)
	return s, nil
}

// Close terminates every subscription (their pending delivery, if any, still
// goes out first, then Next returns ErrClosed) and stops the evaluator.  Close
// blocks until the evaluator goroutine has exited and is idempotent.
func (h *Hub) Close() {
	h.shut(ErrClosed)
	<-h.done
}

// shut closes the hub to new subscriptions, ends the ones it has with err and
// tells the evaluator to stop.
func (h *Hub) shut(err error) {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for s := range h.subs {
			s.terminate(err)
		}
		close(h.stop)
	}
	h.mu.Unlock()
}

func (h *Hub) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			return
		case <-h.wake:
		}
		for h.joins.Load() > h.served || h.latest.Load() > h.evaluated {
			h.round()
			select {
			case <-h.stop:
				return
			default:
			}
		}
	}
}

// round evaluates every subscribed key at one state of the source and offers
// each result to the key's subscribers.
func (h *Hub) round() {
	joins, target, stamp := h.joins.Load(), h.latest.Load(), h.stamp.Load()
	if target <= h.evaluated {
		// No notified commit drove this round, so there is no commit to
		// measure a delivery's lag against.
		stamp = 0
	}

	// Every subscriber joins covers is in subs by now or has left again.
	var watches []any
	var groups [][]*Sub
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	index := make(map[any]int, len(h.subs))
	for s := range h.subs {
		i, ok := index[s.key]
		if !ok {
			i = len(groups)
			index[s.key] = i
			watches = append(watches, s.watch)
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], s)
	}
	h.mu.Unlock()

	epoch := target
	if len(groups) > 0 {
		var states []any
		var err error
		if epoch, states, err = h.eval(watches); err != nil {
			h.shut(err)
			return
		}
		for i, g := range groups {
			for _, s := range g {
				s.offer(epoch, states[i], stamp)
			}
		}
	}
	h.evaluated, h.served = max(h.evaluated, epoch, target), joins
}

// Delivery is what Sub.Next hands out: the newest round's result for the
// subscription's key.
type Delivery struct {
	// Epoch is the epoch of the source the round read.
	Epoch uint64
	// State is what the EvalFunc returned for the key.
	State any
	// Coalesced reports how many earlier rounds' results this one replaced
	// in the mailbox before the subscriber picked any of them up.
	Coalesced uint64
	// Lag is the time from the commit notification that drove the round to
	// Next handing the delivery out; 0 when no fresh commit drove it.
	Lag time.Duration
}

// Sub is one subscription: a one-slot mailbox where the latest epoch wins.
type Sub struct {
	h          *Hub
	key, watch any
	signal     chan struct{}

	mu    sync.Mutex
	err   error    // terminal; a pending delivery still goes out first
	next  uint64   // the lowest epoch that is still news to this subscriber
	has   bool     // box holds an undelivered round
	box   Delivery // Lag is filled in by Next
	stamp int64
}

// offer puts one round's result into the mailbox, over whatever was there.
// The evaluator is the only caller.
func (s *Sub) offer(epoch uint64, state any, stamp int64) {
	s.mu.Lock()
	if s.err != nil || epoch < s.next {
		s.mu.Unlock()
		return
	}
	folded := s.box.Coalesced
	if s.has {
		folded++
	}
	s.box = Delivery{Epoch: epoch, State: state, Coalesced: folded}
	s.stamp, s.has, s.next = stamp, true, epoch+1
	s.mu.Unlock()
	kick(s.signal)
}

// terminate sets the subscription's terminal error; a pending delivery still
// goes out before Next reports it.
func (s *Sub) terminate(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	kick(s.signal)
}

// Next blocks for the next delivery.  It returns the subscription's terminal
// error (ErrClosed after the hub or the subscription was closed, the
// EvalFunc's error after a failed round) once nothing is pending, or the
// context's error when ctx ends first.
func (s *Sub) Next(ctx context.Context) (Delivery, error) {
	for {
		s.mu.Lock()
		if s.has {
			d := s.box
			if s.stamp > 0 {
				d.Lag = max(0, time.Since(time.Unix(0, s.stamp)))
			}
			s.box, s.has = Delivery{}, false
			s.mu.Unlock()
			return d, nil
		}
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return Delivery{}, err
		}
		select {
		case <-ctx.Done():
			return Delivery{}, ctx.Err()
		case <-s.signal:
		}
	}
}

// Close unsubscribes.  Idempotent.
func (s *Sub) Close() {
	s.h.mu.Lock()
	if _, ok := s.h.subs[s]; ok {
		delete(s.h.subs, s)
		s.h.nsubs.Add(-1)
	}
	s.h.mu.Unlock()
	s.terminate(ErrClosed)
}
