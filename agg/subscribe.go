package agg

import (
	"context"
	"errors"
	"iter"
	"strconv"
	"strings"
	"time"

	"repro/internal/live"
)

// Update is one push delivered by Session.Subscribe: the subscribed quantity
// re-evaluated at a committed epoch.  Because slow subscribers coalesce,
// consecutive Updates may skip epochs; each one is self-consistent at its
// Epoch.
type Update struct {
	// Epoch is the committed session epoch the update reflects.
	Epoch uint64
	// Kind is "value", "point", "count" or "delta", per the subscription.
	Kind string
	// Value is the query value for "value" and "point" subscriptions.
	Value Value
	// Count is the answer count for "count" subscriptions.
	Count int64
	// Reset marks a "delta" update that replaces any previously known
	// answer set: Answers is the complete set at Epoch.  Subscribers get a
	// Reset first (unless resuming from the current epoch) and must accept
	// one at any later point.
	Reset bool
	// Answers is the full answer set of a Reset.
	Answers []Answer
	// Added and Removed are the net answer-set change since the previous
	// delivered update, for non-Reset "delta" updates.
	Added   []Answer
	Removed []Answer
	// Coalesced counts evaluated results that were folded into this one
	// because the subscriber lagged; 0 means it kept up.
	Coalesced uint64
	// Lag is the approximate time from the commit that produced Epoch to
	// this update becoming deliverable; 0 when the update was not driven by
	// a fresh commit (initial snapshots).
	Lag time.Duration
}

// SubscribeOption configures one Session.Subscribe call.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	kind    live.Kind
	kindSet bool
	args    []int
	from    uint64
	hasFrom bool
	err     error
}

func (c *subscribeConfig) setKind(k live.Kind) {
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
		c.setKind(live.KindPoint)
		c.args = args
	}
}

// SubscribeCount subscribes to the answer count of an enumerable query.
func SubscribeCount() SubscribeOption {
	return func(c *subscribeConfig) { c.setKind(live.KindCount) }
}

// SubscribeDelta subscribes to the answer set of an enumerable query as a
// stream of added/removed tuples, starting from a full Reset snapshot.
func SubscribeDelta() SubscribeOption {
	return func(c *subscribeConfig) { c.setKind(live.KindDelta) }
}

// SubscribeFrom resumes a subscription: epoch is the last committed epoch
// the client has already seen.  At or above the session's current epoch the
// initial snapshot is skipped and delivery starts with the next commit;
// below it the subscription starts with a fresh snapshot (a Reset for
// "delta") because skipped epochs cannot be replayed.
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
// Nested sessions, which cannot snapshot, fail with ErrArgument.
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
		case live.KindValue:
			if n := len(s.p.FreeVars()); n > 0 {
				yield(Update{}, errorf(ErrArgument, s.p.text, "query has %d free variables; subscribe with SubscribePoint", n))
				return
			}
		case live.KindPoint:
			if got, want := len(cfg.args), len(s.p.FreeVars()); got != want {
				yield(Update{}, errorf(ErrArgument, s.p.text, "SubscribePoint got %d args, query has %d free variables", got, want))
				return
			}
		case live.KindCount, live.KindDelta:
			if s.p.enum == nil {
				yield(Update{}, errorf(ErrNotEnumerable, s.p.text, "%s subscriptions need a first-order formula or a boolean nested query with free variables", cfg.kind))
				return
			}
		}
		// Nested and closed sessions are rejected up front; resume semantics
		// anchor at the current committed epoch.
		clock, err := s.pinnable()
		if err != nil {
			yield(Update{}, err)
			return
		}
		epoch := clock.Epoch()
		hub, err := s.ensureHub()
		if err != nil {
			yield(Update{}, err)
			return
		}
		resume := cfg.from
		if resume > epoch {
			resume = epoch
		}
		initial := !cfg.hasFrom || cfg.from < epoch
		key := live.Key{Kind: cfg.kind, Args: live.EncodeArgs(cfg.args)}
		sub, err := hub.Subscribe(key, resume, initial)
		if err != nil {
			yield(Update{}, errorf(ErrSessionClosed, s.p.text, "session was closed"))
			return
		}
		defer sub.Close()
		kind := cfg.kind.String()
		for {
			res, err := sub.Next(ctx)
			if err != nil {
				if errors.Is(err, live.ErrClosed) {
					err = errorf(ErrSessionClosed, s.p.text, "session was closed")
				}
				yield(Update{}, err)
				return
			}
			u := Update{Epoch: res.Epoch, Kind: kind, Coalesced: res.Coalesced}
			if res.Stamp > 0 {
				if lag := time.Since(time.Unix(0, res.Stamp)); lag > 0 {
					u.Lag = lag
				}
			}
			switch cfg.kind {
			case live.KindValue, live.KindPoint:
				u.Value = Value(res.Value)
			case live.KindCount:
				u.Count = res.Count
			case live.KindDelta:
				if res.Full {
					u.Reset = true
					u.Answers = toAnswers(res.Answers)
				} else {
					u.Added = toAnswers(res.Added)
					u.Removed = toAnswers(res.Removed)
				}
			}
			if !yield(u, nil) {
				return
			}
		}
	}
}

func toAnswers(ts [][]int) []Answer {
	if len(ts) == 0 {
		return nil
	}
	out := make([]Answer, len(ts))
	for i, t := range ts {
		out[i] = Answer(t)
	}
	return out
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
// and evaluates every subscribed key of the round from that pin — values,
// counts and answer-set deltas alike — so subscribers of one session never
// see two updates with one Epoch that disagree, and one commit costs one
// evaluation per distinct key no matter how many subscribers share it.  It
// runs only on the hub's evaluator goroutine.
func (s *Session) liveEval(reqs []live.Request) (uint64, []live.Result, error) {
	ctx := context.Background()
	r, err := s.Snapshot()
	if err != nil {
		return 0, nil, err
	}
	defer r.Close()
	epoch := r.Epoch()
	out := make([]live.Result, len(reqs))
	for i, rq := range reqs {
		res := live.Result{Epoch: epoch}
		switch rq.Key.Kind {
		case live.KindValue:
			v, verr := r.Eval(ctx)
			res.Value, res.Err = string(v), verr
		case live.KindPoint:
			args, aerr := decodeSubscribeArgs(rq.Key.Args)
			if aerr != nil {
				res.Err = aerr
				break
			}
			v, verr := r.Eval(ctx, args...)
			res.Value, res.Err = string(v), verr
		case live.KindCount:
			n, cerr := r.AnswerCount(ctx)
			res.Count, res.Err = n, cerr
		case live.KindDelta:
			res = s.liveDeltaEval(ctx, r, rq, epoch)
		}
		out[i] = res
	}
	return epoch, out, nil
}

// liveDeltaEval enumerates the answer set at the pinned epoch and diffs it
// against the state of the previous evaluation of the same key.
func (s *Session) liveDeltaEval(ctx context.Context, r *Reader, rq live.Request, epoch uint64) live.Result {
	res := live.Result{Epoch: epoch}
	cur := make(map[string][]int)
	for a, err := range r.Enumerate(ctx) {
		if err != nil {
			res.Err = err
			return res
		}
		t := append([]int(nil), a...)
		cur[live.EncodeArgs(t)] = t
	}
	if s.liveDelta == nil {
		s.liveDelta = make(map[live.Key]map[string][]int)
	}
	prev, ok := s.liveDelta[rq.Key]
	if ok {
		res.Increments = true
		for k, t := range cur {
			if _, in := prev[k]; !in {
				res.Added = append(res.Added, t)
			}
		}
		for k, t := range prev {
			if _, in := cur[k]; !in {
				res.Removed = append(res.Removed, t)
			}
		}
	}
	if rq.Full || !ok {
		res.Full = true
		res.Answers = make([][]int, 0, len(cur))
		for _, t := range cur {
			res.Answers = append(res.Answers, t)
		}
	}
	s.liveDelta[rq.Key] = cur
	return res
}

func decodeSubscribeArgs(enc string) ([]int, error) {
	if enc == "" {
		return nil, nil
	}
	parts := strings.Split(enc, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
