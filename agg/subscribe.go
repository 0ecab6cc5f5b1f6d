package agg

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"time"

	"repro/internal/live"
)

// Update is one push delivered by Session.Subscribe: the subscribed quantity
// re-evaluated at a committed epoch.  Because slow subscribers coalesce,
// consecutive Updates may skip epochs; each one is self-consistent at its
// Epoch.  Its JSON form is the wire shape of one /subscribe line.
type Update struct {
	// Epoch is the committed session epoch the update reflects.
	Epoch uint64 `json:"epoch"`
	// Kind is "value", "point", "count" or "delta", per the subscription.
	Kind string `json:"kind"`
	// Value is the query value for "value" and "point" subscriptions.
	Value Value `json:"value,omitempty"`
	// Count is the answer count for "count" subscriptions.
	Count int64 `json:"count,omitempty"`
	// Reset marks a "delta" update that replaces any previously known
	// answer set: Answers is the complete set at Epoch.  Subscribers get a
	// Reset first (unless resuming from the current epoch) and must accept
	// one at any later point.
	Reset bool `json:"reset,omitempty"`
	// Answers is the full answer set of a Reset, in lexicographic order.
	Answers []Answer `json:"answers,omitempty"`
	// Added and Removed are the difference between the answer set at Epoch
	// and the one this subscriber was last given, for non-Reset "delta"
	// updates, each in lexicographic order.
	Added   []Answer `json:"added,omitempty"`
	Removed []Answer `json:"removed,omitempty"`
	// Coalesced counts evaluated results that were folded into this one
	// because the subscriber lagged; 0 means it kept up.
	Coalesced uint64 `json:"coalesced,omitempty"`
	// Lag is the approximate time from the commit that produced Epoch to
	// this update becoming deliverable; 0 when the update was not driven by
	// a fresh commit (initial snapshots).
	Lag time.Duration `json:"-"`
}

// kind is what a subscription watches; its name is Update.Kind.
type kind uint8

const (
	kindValue kind = iota // the closed query's value
	kindPoint             // the query's value at one argument tuple
	kindCount             // the number of answers of an enumerable query
	kindDelta             // the answer set of an enumerable query
)

func (k kind) String() string { return [...]string{"value", "point", "count", "delta"}[k] }

// watch is what one subscription asks of every epoch: the hub hands it to
// liveEval once per round for all the subscriptions whose watchKeys agree.
type watch struct {
	kind kind
	args []int // the point, for kindPoint
}

// watchKey is a watch in comparable form.
type watchKey struct {
	kind kind
	args string
}

// watched is a watch read at one epoch: the value, the count or the sorted
// answer set.  One is shared by every subscriber of a key and never written
// after liveEval returns it.
type watched struct {
	value   Value
	count   int64
	answers []Answer
	err     error
}

// SubscribeOption configures one Session.Subscribe call.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	watch
	kindSet bool
	from    uint64
	hasFrom bool
	err     error
}

func (c *subscribeConfig) setKind(k kind) {
	if c.kindSet && c.kind != k {
		c.err = errors.New("conflicting subscription kinds: " + c.kind.String() + " and " + k.String())
		return
	}
	c.kind, c.kindSet = k, true
}

// SubscribePoint subscribes to the query value at one fixed argument tuple
// (one element per free variable) instead of the closed query value.
func SubscribePoint(args ...int) SubscribeOption {
	return func(c *subscribeConfig) {
		c.setKind(kindPoint)
		c.args = slices.Clone(args) // the evaluator reads it on every round
	}
}

// SubscribeCount subscribes to the answer count of an enumerable query.
func SubscribeCount() SubscribeOption {
	return func(c *subscribeConfig) { c.setKind(kindCount) }
}

// SubscribeDelta subscribes to the answer set of an enumerable query as a
// stream of added/removed tuples, starting from a full Reset snapshot.
func SubscribeDelta() SubscribeOption {
	return func(c *subscribeConfig) { c.setKind(kindDelta) }
}

// SubscribeFrom resumes a subscription: epoch is the last committed epoch
// the client has already seen.  At or above the session's current epoch the
// initial snapshot is skipped and delivery starts with the next commit;
// below it the subscription starts with a fresh snapshot (a Reset for
// "delta") because skipped epochs cannot be replayed.  The current epoch is
// the epoch of the subscription's first evaluation, which is taken after the
// subscription is registered: a commit racing the Subscribe call is either
// part of that evaluation or pushed after it, never lost.
func SubscribeFrom(epoch uint64) SubscribeOption {
	return func(c *subscribeConfig) { c.from, c.hasFrom = epoch, true }
}

// Subscribe registers live interest in the session: it yields an Update
// after every committed batch or point write (the current state first,
// unless resuming via SubscribeFrom), re-evaluated from an MVCC snapshot of
// the committed epoch.  By default the closed query value is watched;
// SubscribePoint, SubscribeCount and SubscribeDelta watch a point value, the
// answer count, or the answer set as deltas.
//
// Slow consumers never stall the session's writer or other subscribers:
// each subscription holds a one-slot mailbox where the latest epoch wins, so
// a lagging client skips intermediate epochs (Update.Coalesced reports how
// many evaluations were folded together).  Every subscriber still observes
// a monotone subsequence of committed epochs ending at the session's final
// epoch.
//
// The stream ends when ctx is cancelled (the iterator yields the context
// error), when the session is closed (ErrSessionClosed, after any pending
// update is delivered), or when the consumer breaks out of the loop.
func (s *Session) Subscribe(ctx context.Context, opts ...SubscribeOption) iter.Seq2[Update, error] {
	ctx = ensureCtx(ctx)
	return func(yield func(Update, error) bool) {
		var cfg subscribeConfig
		for _, o := range opts {
			o(&cfg)
		}
		if cfg.err != nil {
			yield(Update{}, newError(ErrArgument, s.p.text, cfg.err))
			return
		}
		switch cfg.kind {
		case kindValue:
			if n := len(s.p.FreeVars()); n > 0 {
				yield(Update{}, errorf(ErrArgument, s.p.text, "query has %d free variables; subscribe with SubscribePoint", n))
				return
			}
		case kindPoint:
			if got, want := len(cfg.args), len(s.p.FreeVars()); got != want {
				yield(Update{}, errorf(ErrArgument, s.p.text, "SubscribePoint got %d args, query has %d free variables", got, want))
				return
			}
		case kindCount, kindDelta:
			if s.p.enum == nil {
				yield(Update{}, errorf(ErrNotEnumerable, s.p.text, "%s subscriptions need a first-order formula or a boolean nested query with free variables", cfg.kind))
				return
			}
		}
		// A closed session is rejected up front, and a context that is already
		// over before anything is registered: a caller probing for the errors
		// above costs the session nothing.
		if err := s.open(); err != nil {
			yield(Update{}, err)
			return
		}
		if err := ctx.Err(); err != nil {
			yield(Update{}, err)
			return
		}
		hub, err := s.ensureHub()
		if err != nil {
			yield(Update{}, err)
			return
		}
		sub, err := hub.Subscribe(watchKey{cfg.kind, fmt.Sprint(cfg.args)}, &cfg.watch)
		if err != nil {
			yield(Update{}, errorf(ErrSessionClosed, s.p.text, "session was closed"))
			return
		}
		defer sub.Close()

		// The hub owes every subscription the current state and then the
		// newest evaluated epoch; what this subscriber makes of them lives in
		// this frame.  A resuming subscriber swallows the current state if it
		// is not news to it, and a delta is the difference from the answer set
		// this subscriber was last given (swallowed or not), so deltas that
		// skip epochs are net by construction.
		resuming := cfg.hasFrom
		var given []Answer
		seeded := false
		for {
			d, err := sub.Next(ctx)
			if err != nil {
				if errors.Is(err, live.ErrClosed) {
					err = errorf(ErrSessionClosed, s.p.text, "session was closed")
				}
				yield(Update{}, err)
				return
			}
			w := d.State.(*watched)
			if w.err != nil {
				yield(Update{}, w.err)
				return
			}
			u := Update{
				Epoch: d.Epoch, Kind: cfg.kind.String(), Value: w.value, Count: w.count,
				Coalesced: d.Coalesced, Lag: d.Lag,
			}
			if cfg.kind == kindDelta {
				if seeded {
					u.Added, u.Removed = diffAnswers(given, w.answers)
				} else {
					u.Reset, u.Answers = true, slices.Clone(w.answers)
				}
				given, seeded = w.answers, true
			}
			swallow := resuming && d.Epoch <= cfg.from
			resuming = false
			if !swallow && !yield(u, nil) {
				return
			}
		}
	}
}

// diffAnswers returns the answers of next that prev lacks and those of prev
// that next lacks; both inputs are sorted and so are both outputs.
func diffAnswers(prev, next []Answer) (added, removed []Answer) {
	for len(prev) > 0 && len(next) > 0 {
		switch c := slices.Compare(prev[0], next[0]); {
		case c < 0:
			removed, prev = append(removed, prev[0]), prev[1:]
		case c > 0:
			added, next = append(added, next[0]), next[1:]
		default:
			prev, next = prev[1:], next[1:]
		}
	}
	return append(added, next...), append(removed, prev...)
}

// ensureHub lazily creates the session's live hub; the writer path stays
// hub-free (one atomic load) until the first subscriber arrives.
func (s *Session) ensureHub() (*live.Hub, error) {
	if h := s.hub.Load(); h != nil {
		return h, nil
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.closed {
		return nil, errorf(ErrSessionClosed, s.p.text, "session was closed")
	}
	if h := s.hub.Load(); h != nil {
		return h, nil
	}
	h := live.NewHub(s.liveEval)
	s.hub.Store(h)
	return h, nil
}

// liveEval is the hub's EvalFunc: it pins the latest committed epoch once
// and reads every watch of the round from that pin — values, counts and
// answer sets alike — so subscribers of one session never see two updates
// with one Epoch that disagree, and one commit costs one evaluation per
// distinct watch no matter how many subscribers share it.  A watch that
// fails ends its own subscribers only.
func (s *Session) liveEval(watches []any) (uint64, []any, error) {
	ctx := context.Background()
	r, err := s.Snapshot()
	if err != nil {
		return 0, nil, err
	}
	defer r.Close()
	out := make([]any, len(watches))
	for i, w := range watches {
		w, res := w.(*watch), &watched{}
		switch w.kind {
		case kindValue, kindPoint:
			res.value, res.err = r.Eval(ctx, w.args...)
		case kindCount:
			res.count, res.err = r.AnswerCount(ctx)
		case kindDelta:
			for a, err := range r.Enumerate(ctx) {
				if res.err = err; err != nil {
					break
				}
				res.answers = append(res.answers, a)
			}
			slices.SortFunc(res.answers, slices.Compare[Answer])
		}
		out[i] = res
	}
	return r.Epoch(), out, nil
}
