package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"strconv"

	"repro/agg"
)

// sizes is a size preset: database sizes and the op counts of one round.
// Rounds are fixed work; only their number depends on the time budget.
type sizes struct {
	setups int // set-ups per untraced run; setup_s is their median

	coldN       int // cold_prepare: bounded-degree
	triPrepares int // headline Prepares per round (one formula Prepare rides along)
	exPrepares  int // quantifier-elimination Prepares per round

	warmN  int // warm_read: bounded-degree
	evals  int // full circuit evaluations per round
	passes int // full enumeration passes per round

	sessN     int // session_rw and fleet_mix: pref-attach
	rwChunks  int // chunks of Sets, and of point reads, per round
	pinChunks int // chunks of Sets while a Reader is pinned
	batch     int // changes in the round's one ApplyBatch
	blocks    int // fleet_mix: blocks of 8 requests per client per round

	probeReps int // repetitions of each slow layer probe
}

// The full preset sizes one set-up to 2–4 s and the measured phase to some
// tens to hundreds of rounds in 20 s on a 2-core box.  warm_read stays at
// n=1200 because its set-up is paid three times per run: at n=2000 the two
// Prepares alone take 8.4 s.
var (
	fullSizes = sizes{
		setups: 3,
		coldN:  600, triPrepares: 3, exPrepares: 4,
		warmN: 1200, evals: 512, passes: 8,
		sessN: 1500, rwChunks: 16, pinChunks: 4, batch: 256, blocks: 64,
		probeReps: 5,
	}
	tinySizes = sizes{
		setups: 1,
		coldN:  48, triPrepares: 2, exPrepares: 2,
		warmN: 64, evals: 16, passes: 2,
		sessN: 96, rwChunks: 2, pinChunks: 1, batch: 32, blocks: 2,
		probeReps: 2,
	}
)

const hotKeys = 64

var ctx = context.Background()

var workloads = []workload{
	{
		name:  "cold_prepare",
		why:   "parser, qe, colouring, compile and freeze do all the work and nothing is cached; 1 goroutine, closed loop",
		input: func(sz sizes, seed int64) (*inputs, error) { return newInputs("bounded-degree", sz.coldN, seed) },
		setup: newColdPrepare,
	},
	{
		name:  "warm_read",
		why:   "compile is paid in set-up only; circuit evaluation and enumeration cursors do all the work; 1 goroutine, closed loop",
		input: func(sz sizes, seed int64) (*inputs, error) { return newInputs("bounded-degree", sz.warmN, seed) },
		setup: newWarmRead,
	},
	{
		name:  "session_rw",
		why:   "writes beside reads on one dynamic circuit and its MVCC log, half the keys on 64 hubs; 1 goroutine, closed loop",
		input: func(sz sizes, seed int64) (*inputs, error) { return newInputs("pref-attach", sz.sessN, seed) },
		setup: newSessionRW,
	},
	{
		name:  "fleet_mix",
		why:   "HTTP codec, server cache and router hop dominate and the engine does little: the bypass for engine work; 1 closed-loop client",
		input: func(sz sizes, seed int64) (*inputs, error) { return newInputs("pref-attach", sz.sessN, seed) },
		setup: newFleetMix,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadDatabase is the part of set-up every workload shares: load the
// serialised database the way a user would.
func loadDatabase(in *inputs) (*agg.Database, error) {
	return agg.ReadDatabase(bytes.NewReader(in.raw))
}

// opLog digests the op sequence a workload issues, so two runs can be held
// to have done the same work.
type opLog struct{ h hash.Hash64 }

func newOpLog() opLog { return opLog{fnv.New64a()} }

func (l opLog) text(s string) { io.WriteString(l.h, s) }

func (l opLog) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		l.h.Write(b[:])
	}
}

func (l opLog) sum() string { return strconv.FormatUint(l.h.Sum64(), 16) }

// collectAnswers drains one enumeration of a three-variable formula, sorted.
func collectAnswers(p *agg.Prepared) ([][3]int, error) {
	var out [][3]int
	for ans, err := range p.Enumerate(ctx) {
		if err != nil {
			return nil, err
		}
		out = append(out, [3]int{ans[0], ans[1], ans[2]})
	}
	sortAnswers(out)
	return out, nil
}

// ---------------------------------------------------------------------------
// cold_prepare
// ---------------------------------------------------------------------------

type coldPrepare struct {
	sz      sizes
	in      *inputs
	eng     *agg.Engine
	log     opLog
	answers int
}

func newColdPrepare(sz sizes, in *inputs) (instance, error) {
	db, err := loadDatabase(in)
	if err != nil {
		return nil, err
	}
	return &coldPrepare{sz: sz, in: in, eng: agg.Open(db), log: newOpLog()}, nil
}

// prepare times one Engine.Prepare and then, outside the timer, holds the
// Prepared to the oracle.
func (c *coldPrepare) prepare(r *rec, dst *[]float64, name, query string, check func(*agg.Prepared) bool) {
	c.log.text(query)
	var p *agg.Prepared
	us, err := r.timed(name, 1, func() (err error) {
		p, err = c.eng.Prepare(ctx, query)
		return err
	})
	r.done(dst, us, 1, err == nil && check(p))
}

func (c *coldPrepare) round(r *rec) {
	evalIs := func(want string) func(*agg.Prepared) bool {
		return func(p *agg.Prepared) bool {
			v, err := p.Eval(ctx)
			return err == nil && string(v) == want
		}
	}
	for i := 0; i < c.sz.triPrepares; i++ {
		c.prepare(r, &r.op, "agg.prepare", queryTriangle, evalIs(c.in.triRef))
	}
	c.prepare(r, &r.aux, "agg.prepare_formula", queryPath, func(p *agg.Prepared) bool {
		n, err := p.AnswerCount(ctx)
		got, eerr := collectAnswers(p)
		if r.round >= 0 {
			c.answers += len(got)
		}
		return err == nil && eerr == nil && int(n) == len(c.in.pathRef) && slices.Equal(got, c.in.pathRef)
	})
	for i := 0; i < c.sz.exPrepares; i++ {
		c.prepare(r, nil, "agg.prepare_exists", queryExists, evalIs(c.in.exRef))
	}
}

func (c *coldPrepare) finish(*rec) fingerprint {
	return fingerprint{Input: c.in.hash(), Ops: c.log.sum(), Answers: c.answers}
}

func (c *coldPrepare) close() {}

// ---------------------------------------------------------------------------
// warm_read
// ---------------------------------------------------------------------------

type warmRead struct {
	sz      sizes
	in      *inputs
	tri     *agg.Prepared
	path    *agg.Prepared
	log     opLog
	answers int
}

func newWarmRead(sz sizes, in *inputs) (instance, error) {
	db, err := loadDatabase(in)
	if err != nil {
		return nil, err
	}
	eng := agg.Open(db)
	w := &warmRead{sz: sz, in: in, log: newOpLog()}
	if w.tri, err = eng.Prepare(ctx, queryTriangle); err != nil {
		return nil, err
	}
	if w.path, err = eng.Prepare(ctx, queryPath); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *warmRead) round(r *rec) {
	w.log.ints(int64(w.sz.evals), int64(w.sz.passes))
	for i := 0; i < w.sz.evals; i++ {
		var v agg.Value
		us, err := r.timed("agg.eval", 1, func() (err error) {
			v, err = w.tri.Eval(ctx)
			return err
		})
		r.done(&r.op, us, 1, err == nil && string(v) == w.in.triRef)
	}
	// The companion figure is the time to stream 1000 answers: one full pass,
	// divided by the answers it yielded.  The digest holds the timed stream
	// to the oracle without collecting it.
	for i := 0; i < w.sz.passes; i++ {
		n, digest := 0, uint64(0)
		us, err := r.timed("agg.enumerate", 1, func() error {
			for ans, err := range w.path.Enumerate(ctx) {
				if err != nil {
					return err
				}
				n++
				digest += answerHash(ans[0], ans[1], ans[2])
			}
			return nil
		})
		good := err == nil && n > 0 && n == len(w.in.pathRef) && digest == w.in.pathDigest
		r.done(&r.aux, us/float64(max(n, 1))*1000, 1, good)
		if r.round >= 0 {
			w.answers += n
		}
	}
	var count int64
	us, err := r.timed("agg.answer_count", 1, func() (err error) {
		count, err = w.path.AnswerCount(ctx)
		return err
	})
	r.done(nil, us, 1, err == nil && int(count) == len(w.in.pathRef))
}

// finish collects one enumeration in full: the digest of the timed passes
// cannot tell a duplicate from a colliding pair, the sorted comparison can.
func (w *warmRead) finish(r *rec) fingerprint {
	got, err := collectAnswers(w.path)
	r.done(nil, 0, 1, err == nil && slices.Equal(got, w.in.pathRef))
	return fingerprint{Input: w.in.hash(), Ops: w.log.sum(), Answers: w.answers}
}

func (w *warmRead) close() {}

// ---------------------------------------------------------------------------
// session_rw
// ---------------------------------------------------------------------------

// keyStream draws the seeded keys and weight changes of the session
// workloads: half the keys from the hub vertices, half uniform, and every
// change moves its weight to a different value in 1..8 so no Set is a no-op.
// u mirrors the weights the session holds.
type keyStream struct {
	rng *rand.Rand
	hot []int
	u   []int64
	log opLog

	tuples  []int // backing store of the change tuples, so a round allocates nothing
	changes []agg.Change
	keys    []int
}

func newKeyStream(in *inputs, seed int64, most int) *keyStream {
	most = max(most, chunk)
	return &keyStream{
		rng: rand.New(rand.NewSource(seed)), hot: in.hot, u: in.vertexWeights(), log: newOpLog(),
		tuples: make([]int, most), changes: make([]agg.Change, most), keys: make([]int, most),
	}
}

func (k *keyStream) key() int {
	if k.rng.Intn(2) == 0 {
		return k.hot[k.rng.Intn(len(k.hot))]
	}
	return k.rng.Intn(len(k.u))
}

// nextKeys returns n read keys; the slice is reused by the next call.
func (k *keyStream) nextKeys(n int) []int {
	for i := 0; i < n; i++ {
		k.keys[i] = k.key()
		k.log.ints(-1, int64(k.keys[i]))
	}
	return k.keys[:n]
}

// nextChanges returns n weight changes, already applied to the mirror; the
// slice is reused by the next call.
func (k *keyStream) nextChanges(n int) []agg.Change {
	for i := 0; i < n; i++ {
		v := k.key()
		k.u[v] = (k.u[v]+int64(k.rng.Intn(7)))%8 + 1
		k.tuples[i] = v
		k.changes[i] = agg.SetWeight("u", k.tuples[i:i+1], k.u[v])
		k.log.ints(int64(v), k.u[v])
	}
	return k.changes[:n]
}

type sessionRW struct {
	sz     sizes
	in     *inputs
	p      *agg.Prepared
	s      *agg.Session
	ks     *keyStream
	vals   []agg.Value
	before []string
}

func newSessionRW(sz sizes, in *inputs) (instance, error) {
	db, err := loadDatabase(in)
	if err != nil {
		return nil, err
	}
	s := &sessionRW{sz: sz, in: in, ks: newKeyStream(in, in.seed, sz.batch),
		vals: make([]agg.Value, chunk), before: make([]string, chunk)}
	if s.p, err = agg.Open(db).Prepare(ctx, queryPoint); err != nil {
		return nil, err
	}
	if s.s, err = s.p.Session(); err != nil {
		return nil, err
	}
	return s, nil
}

// sets applies a chunk of single Sets under one clock pair.
func (s *sessionRW) sets(r *rec, dst *[]float64, name string) {
	changes := s.ks.nextChanges(chunk)
	us, err := r.timed(name, chunk, func() error {
		for i := range changes {
			if err := s.s.Set(changes[i]); err != nil {
				return err
			}
		}
		return nil
	})
	r.done(dst, us, chunk, err == nil)
}

func (s *sessionRW) round(r *rec) {
	for c := 0; c < s.sz.rwChunks; c++ {
		s.sets(r, &r.op, "agg.session_set")
	}
	for c := 0; c < s.sz.rwChunks; c++ {
		keys := s.ks.nextKeys(chunk)
		us, err := r.timed("agg.session_eval", chunk, func() (err error) {
			for i, x := range keys {
				if s.vals[i], err = s.s.Eval(ctx, x); err != nil {
					return err
				}
			}
			return nil
		})
		r.done(&r.aux, us, chunk, err == nil && string(s.vals[0]) == s.in.pointAt(s.ks.u, keys[0]))
	}

	// Pin a Reader, write past it, read at the now-stale epoch: the reads
	// must still see the values of the pinned epoch.
	keys := s.ks.nextKeys(chunk)
	for i, x := range keys {
		s.before[i] = s.in.pointAt(s.ks.u, x)
	}
	var rd *agg.Reader
	us, err := r.timed("agg.snapshot", 1, func() (err error) {
		rd, err = s.s.Snapshot()
		return err
	})
	r.done(nil, us, 1, err == nil)
	if err != nil {
		return
	}
	for c := 0; c < s.sz.pinChunks; c++ {
		s.sets(r, nil, "mvcc.pinned_set")
	}
	us, err = r.timed("mvcc.stale_read", chunk, func() (err error) {
		for i, x := range keys {
			if s.vals[i], err = rd.Eval(ctx, x); err != nil {
				return err
			}
		}
		return nil
	})
	stale := err == nil
	for i := range keys {
		stale = stale && string(s.vals[i]) == s.before[i]
	}
	r.done(nil, us, chunk, stale)
	r.tr.count("mvcc.retained_undo_bytes", r.round, float64(s.s.RetainedUndoBytes()))
	us, err = r.timed("agg.reader_close", 1, rd.Close)
	r.done(nil, us, 1, err == nil)

	batch := s.ks.nextChanges(s.sz.batch)
	us, err = r.timed("agg.batch", len(batch), func() error { return s.s.ApplyBatch(batch) })
	r.done(nil, us, 1, err == nil)
}

// finishPoints is the number of seeded points read back at the end of a
// session workload and held to the reference under the final weights.
const finishPoints = 32

func (s *sessionRW) finish(r *rec) fingerprint {
	fp := fingerprint{Input: s.in.hash(), Ops: s.ks.log.sum()}
	for _, x := range s.ks.nextKeys(finishPoints) {
		v, err := s.s.Eval(ctx, x)
		r.done(nil, 0, 1, err == nil && string(v) == s.in.pointAt(s.ks.u, x))
		fp.Final = append(fp.Final, string(v))
	}
	return fp
}

func (s *sessionRW) close() { s.s.Close() }
