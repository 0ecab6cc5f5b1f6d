package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/agg"
	"repro/internal/compile"
	"repro/internal/dynamicq"
	"repro/internal/expr"
	"repro/internal/logic"
	"repro/internal/semiring"
	"repro/internal/structure"
	"repro/internal/workload"
)

// e18Expr is the free-variable form of the E13 weighted 2-path query: the
// point reads evaluate it at a vertex x while the writer streams hot-key
// updates to the hub weights sitting in every answer's propagation cone.
const e18Expr = "sum y, z . [E(x,y) & E(y,z) & !(x = z)] * u(y) * u(z)"

// e18PathQuery is the same query as an AST, for the plain-engine baseline.
func e18PathQuery() expr.Expr {
	return expr.Agg([]string{"y", "z"}, expr.Times(
		expr.Guard(logic.Conj(logic.R("E", "x", "y"), logic.R("E", "y", "z"), logic.Neg(logic.Equal("x", "z")))),
		expr.W("u", "y"), expr.W("u", "z"),
	))
}

// e18Measurements holds one E18 run: writer throughput through the plain
// engine and through the MVCC session path (solo and under readers), and the
// readers' p99 point-read latency idle versus under a sustained write stream.
type e18Measurements struct {
	n, updates, reads, readers int

	plainRate float64 // upd/s, dynamicq engine, no facade, no readers
	soloRate  float64 // upd/s, agg session, no readers
	rate1     float64 // upd/s, agg session, 1 concurrent paced reader
	rate8     float64 // upd/s, agg session, 8 concurrent paced readers

	idleP99 time.Duration // reader p99, no writer
	p99r1   time.Duration // reader p99, 1 reader under the write stream
	p99r8   time.Duration // reader p99, 8 readers under the write stream
}

// e18Setup compiles the workload behind the agg facade and returns the
// session, the hot-key update stream, and the read points.
func e18Setup(n, updates int) (*workload.Database, *agg.Session, []agg.Change, []int) {
	db := workload.PreferentialAttachment(n, 2, 11)
	eng := agg.Open(agg.FromStructure(db.A, db.Weights()))
	p, err := eng.Prepare(context.Background(), e18Expr)
	if err != nil {
		panic(fmt.Sprintf("E18: prepare: %v", err))
	}
	s, err := p.Session()
	if err != nil {
		panic(fmt.Sprintf("E18: session: %v", err))
	}
	hubs := hotVertices(db, 64)
	r := rand.New(rand.NewSource(int64(n)))
	stream := make([]agg.Change, updates)
	for i := range stream {
		hub := hubs[r.Intn(len(hubs))]
		stream[i] = agg.SetWeight("u", []int{hub.v}, int64(r.Intn(9)+1))
	}
	points := make([]int, 256)
	for i := range points {
		points[i] = r.Intn(n)
	}
	return db, s, stream, points
}

// e18Phase runs one measurement phase: `readers` paced goroutines each issue
// `reads` point queries against the session (the pace models request arrival
// at a serving frontend — the phase measures latency tails, not CPU
// saturation), while an optional writer loops the hot-key stream until the
// readers finish, yielding between updates the way a request-driven writer
// would between requests.  Returns the pooled reader p99 and the writer's
// sustained update rate (zero when no writer ran).
func e18Phase(s *agg.Session, points []int, readers, reads int, pace time.Duration, stream []agg.Change) (p99 time.Duration, writerRate float64) {
	ctx := context.Background()
	lat := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, reads)
			for i := 0; i < reads; i++ {
				x := points[(r*reads+i)%len(points)]
				t0 := time.Now()
				if _, err := s.Eval(ctx, x); err != nil {
					panic(fmt.Sprintf("E18: read under writes failed: %v", err))
				}
				mine = append(mine, time.Since(t0))
				if pace > 0 {
					time.Sleep(pace)
				}
			}
			lat[r] = mine
		}(r)
	}

	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	applied, writerDur := 0, time.Duration(0)
	if stream != nil {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			t0 := time.Now()
			for {
				for _, ch := range stream {
					select {
					case <-stop:
						writerDur = time.Since(t0)
						return
					default:
					}
					if err := s.Set(ch); err != nil {
						panic(fmt.Sprintf("E18: write under reads failed: %v", err))
					}
					applied++
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writerWg.Wait()
	if applied > 0 {
		writerRate = float64(applied) / writerDur.Seconds()
	}

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	idx := len(all) * 99 / 100
	if idx >= len(all) {
		idx = len(all) - 1
	}
	return all[idx], writerRate
}

// e18PlainRate times the identical update stream through the engine below
// the facade — dynamicq on the same query and workload, no session, no
// snapshot machinery — as the baseline the MVCC write path is held against.
func e18PlainRate(db *workload.Database, stream []agg.Change, reps int) float64 {
	q, err := dynamicq.CompileQuery[int64](semiring.Nat, db.A, db.Weights(), e18PathQuery(), compile.Options{})
	if err != nil {
		panic(fmt.Sprintf("E18: plain compile: %v", err))
	}
	var best time.Duration
	for i := 0; i < reps; i++ {
		d := timeIt(func() {
			for _, ch := range stream {
				if err := q.SetWeight(ch.Weight, structure.Tuple(ch.Tuple), ch.Value); err != nil {
					panic(fmt.Sprintf("E18: plain update: %v", err))
				}
			}
		})
		if i == 0 || d < best {
			best = d
		}
	}
	return float64(len(stream)) / best.Seconds()
}

// e18Measure runs the full comparison at one size.
func e18Measure(n, updates, reads int, pace time.Duration) e18Measurements {
	db, s, stream, points := e18Setup(n, updates)
	const reps = 3

	plainRate := e18PlainRate(db, stream, reps)

	// Writer solo through the session: the MVCC path with no reader pinned,
	// which must stay within a few percent of the plain engine (undo logging
	// is off whenever no snapshot is open).
	var solo time.Duration
	for i := 0; i < reps; i++ {
		d := timeIt(func() {
			for _, ch := range stream {
				if err := s.Set(ch); err != nil {
					panic(fmt.Sprintf("E18: solo update: %v", err))
				}
			}
		})
		if i == 0 || d < solo {
			solo = d
		}
	}

	// Idle baseline: the same paced readers with no writer, so the loaded
	// phases are compared under identical scheduling conditions.
	idleP99, _ := e18Phase(s, points, 8, reads, pace, nil)
	p99r1, rate1 := e18Phase(s, points, 1, reads, pace, stream)
	p99r8, rate8 := e18Phase(s, points, 8, reads, pace, stream)

	return e18Measurements{
		n: n, updates: updates, reads: reads, readers: 8,
		plainRate: plainRate,
		soloRate:  float64(updates) / solo.Seconds(),
		rate1:     rate1, rate8: rate8,
		idleP99: idleP99, p99r1: p99r1, p99r8: p99r8,
	}
}

// E18SnapshotReads measures the MVCC session path end to end: point reads
// answer from epoch snapshots, so a sustained hot-key write stream neither
// blocks them nor fails them busy, and the write path itself — which logs
// undo entries only while a snapshot is pinned — keeps the throughput of the
// plain engine.
func E18SnapshotReads(sizes []int, updates int) *Table {
	t := &Table{
		ID:    "E18",
		Title: "Snapshot reads under a sustained write stream (MVCC sessions)",
		Claim: "point reads answer from epoch snapshots with tail latency near the idle baseline and zero busy failures, while the MVCC write path keeps ≥90% of the plain engine's throughput",
		Header: []string{
			"n", "upd/s plain", "upd/s mvcc", "Δwrite",
			"upd/s +8r", "p99 idle", "p99 +w(1r)", "p99 +w(8r)",
		},
	}
	for _, n := range sizes {
		m := e18Measure(n, updates, 300, 2*time.Millisecond)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(m.n),
			fmt.Sprintf("%.0f", m.plainRate),
			fmt.Sprintf("%.0f", m.soloRate),
			fmt.Sprintf("%+.1f%%", 100*(m.soloRate-m.plainRate)/m.plainRate),
			fmt.Sprintf("%.0f", m.rate8),
			dur(m.idleP99), dur(m.p99r1), dur(m.p99r8),
		})
	}
	t.Notes = append(t.Notes,
		"readers issue paced point queries (request-arrival model); every read during the write stream must succeed — a single ErrSessionBusy fails the experiment",
		"upd/s plain is the E13 per-update regime on the engine below the facade; upd/s mvcc is the same stream through an agg session, whose undo logging is off whenever no snapshot is pinned",
		"the concurrent writer yields between updates as a request-driven frontend would; upd/s +8r shows its sustained rate while 8 readers pin and release snapshots")
	return t
}

// e18Check runs the comparison as a pass/fail smoke check (used by CI): the
// MVCC write path must keep ≥90% of the plain engine's solo throughput, and
// the readers' p99 under the sustained write stream must stay near the idle
// baseline — 1.25× plus a scheduling allowance, since on a small shared
// runner a reader wake-up can land behind an in-flight update wave.  Every
// read during the write stream must succeed (the measurement panics on any
// ErrSessionBusy).  Timing attempts are re-measured up to two more times so
// co-tenant noise cannot red-light an unrelated change.
func e18Check() error {
	const (
		writerKeep = 0.90
		p99Margin  = 1.25
		p99Slack   = time.Millisecond
	)
	var m e18Measurements
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		m = e18Measure(2000, 4000, 300, 2*time.Millisecond)
		err = nil
		limit := time.Duration(p99Margin*float64(m.idleP99)) + p99Slack
		switch {
		case m.soloRate < writerKeep*m.plainRate:
			err = fmt.Errorf("E18: MVCC write path %.0f upd/s is below %.0f%% of the plain engine's %.0f upd/s",
				m.soloRate, 100*writerKeep, m.plainRate)
		case m.p99r8 > limit:
			err = fmt.Errorf("E18: reader p99 %v under the write stream exceeds the idle baseline %v beyond %.2fx + %v",
				m.p99r8, m.idleP99, p99Margin, p99Slack)
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("E18 ok: n=%d, write %.0f upd/s plain vs %.0f mvcc (%+.1f%%), %.0f upd/s under 8 readers, p99 %v idle vs %v loaded(8r)\n",
		m.n, m.plainRate, m.soloRate, 100*(m.soloRate-m.plainRate)/m.plainRate, m.rate8, m.idleP99, m.p99r8)
	return nil
}
