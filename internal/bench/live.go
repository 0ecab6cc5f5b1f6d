package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/agg"
	"repro/internal/server"
	"repro/internal/workload"
)

// e20Expr is the closed aggregate the push subsystem materialises: the same
// edge-weight sum the serving experiments use, extended with a unary term so
// CDC streams that toggle S membership move the value too.
const e20Expr = "sum x, y . [E(x,y)] * w(x,y) + sum x . [S(x)] * u(x)"

// e20Measurements holds one E20 run: the commit→client push latency under 8
// keeping-up subscribers, the coalescing behaviour of a deliberately slow
// client, the writer's update rate with zero subscribers versus one paced
// subscriber, and streaming-ingest versus batched-POST throughput over HTTP.
type e20Measurements struct {
	n, updates, changes int

	p50, p99 time.Duration // push lag across 8 subscribers

	delivered int     // slow client: updates actually delivered
	coalesce  float64 // (delivered + folded evaluations) / delivered
	epochSkip float64 // committed epochs spanned / delivered

	soloRate  float64 // writer upd/s, no subscribers (hub never created)
	pacedRate float64 // writer upd/s, 1 paced subscriber attached

	ingestRate float64 // changes/s through one streamed POST /ingest
	batchRate  float64 // changes/s through equivalent sequential /batch calls
}

// e20Session compiles the workload behind the facade and returns a fresh
// session plus a hot-edge weight-update stream.
func e20Session(db *workload.Database, updates int, seed int64) (*agg.Session, []agg.Change) {
	eng := agg.Open(agg.FromStructure(db.A, db.Weights()))
	p, err := eng.Prepare(context.Background(), e20Expr)
	if err != nil {
		panic(fmt.Sprintf("E20: prepare: %v", err))
	}
	s, err := p.Session()
	if err != nil {
		panic(fmt.Sprintf("E20: session: %v", err))
	}
	edges := db.A.Tuples("E")
	r := rand.New(rand.NewSource(seed))
	hot := edges[:min(64, len(edges))]
	// Every change must differ from the edge's current weight: a same-value
	// set is a no-op that commits no epoch, which would break the exact
	// epoch accounting below ((cur % 9) + 1 never equals cur for 1 ≤ cur ≤ 9).
	cur := make(map[string]int64, len(hot))
	for _, e := range hot {
		cur[e.Key()] = db.EdgeWeight[e.Key()]
	}
	stream := make([]agg.Change, updates)
	for i := range stream {
		e := hot[r.Intn(len(hot))]
		v := cur[e.Key()]%9 + 1
		cur[e.Key()] = v
		stream[i] = agg.SetWeight("w", e, v)
	}
	return s, stream
}

// e20PushLatency runs `subs` keeping-up subscribers while the writer applies
// the stream with a small pace (modelling request arrival), and pools every
// Update.Lag sample: the time from a commit to its update becoming
// deliverable to the client.
func e20PushLatency(s *agg.Session, stream []agg.Change, subs int, pace time.Duration) (p50, p99 time.Duration) {
	ctx := context.Background()
	target := s.Epoch() + uint64(len(stream))
	lat := make([][]time.Duration, subs)
	var ready, done sync.WaitGroup
	for i := 0; i < subs; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			first := true
			var mine []time.Duration
			for u, err := range s.Subscribe(ctx) {
				if err != nil {
					panic(fmt.Sprintf("E20: subscriber: %v", err))
				}
				if first {
					first = false
					ready.Done()
				}
				if u.Lag > 0 {
					mine = append(mine, u.Lag)
				}
				if u.Epoch >= target {
					break
				}
			}
			lat[i] = mine
		}(i)
	}
	ready.Wait()
	for _, ch := range stream {
		if err := s.Set(ch); err != nil {
			panic(fmt.Sprintf("E20: write under subscribers: %v", err))
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	done.Wait()

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pick := func(q int) time.Duration {
		idx := len(all) * q / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		return all[idx]
	}
	return pick(50), pick(99)
}

// e20SlowClient attaches one deliberately slow subscriber (sleeping per
// delivery) under a paced write stream and reports how many updates it
// actually received, the coalescing ratio (evaluated results folded per
// delivered update) and the epoch-skip ratio (committed epochs spanned per
// delivered update).  Both ratios exceed 1 exactly when the one-slot mailbox
// is doing its job.  The writer must be paced: an instantaneous burst is
// absorbed by the evaluator's own latest-epoch-wins loop in one round, which
// skips epochs but gives the mailbox nothing to fold.
func e20SlowClient(s *agg.Session, stream []agg.Change, pace, sleep time.Duration) (delivered int, coalesce, epochSkip float64) {
	ctx := context.Background()
	start := s.Epoch()
	target := start + uint64(len(stream))
	var folded uint64
	var done sync.WaitGroup
	var ready sync.WaitGroup
	ready.Add(1)
	done.Add(1)
	go func() {
		defer done.Done()
		first := true
		for u, err := range s.Subscribe(ctx) {
			if err != nil {
				panic(fmt.Sprintf("E20: slow subscriber: %v", err))
			}
			if first {
				first = false
				ready.Done()
				continue // the initial snapshot is not a pushed commit
			}
			delivered++
			folded += u.Coalesced
			if u.Epoch >= target {
				break
			}
			time.Sleep(sleep)
		}
	}()
	ready.Wait()
	for _, ch := range stream {
		if err := s.Set(ch); err != nil {
			panic(fmt.Sprintf("E20: write past slow client: %v", err))
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	done.Wait()
	if delivered == 0 {
		return 0, 0, 0
	}
	return delivered,
		float64(uint64(delivered)+folded) / float64(delivered),
		float64(len(stream)) / float64(delivered)
}

// e20WriterRate times the identical update loop twice — once on a session no
// subscriber ever touched (the hub is never created, so Notify is a single
// nil atomic load) and once with one paced subscriber attached — and
// returns both sustained rates.
func e20WriterRate(db *workload.Database, stream []agg.Change, pace time.Duration) (solo, paced float64) {
	apply := func(s *agg.Session) time.Duration {
		return timeIt(func() {
			for _, ch := range stream {
				if err := s.Set(ch); err != nil {
					panic(fmt.Sprintf("E20: writer: %v", err))
				}
				runtime.Gosched()
			}
		})
	}

	s0, _ := e20Session(db, 0, 1)
	d0 := apply(s0)
	s0.Close()

	s1, _ := e20Session(db, 0, 1)
	defer s1.Close()
	target := s1.Epoch() + uint64(len(stream))
	ctx := context.Background()
	var ready, done sync.WaitGroup
	ready.Add(1)
	done.Add(1)
	go func() {
		defer done.Done()
		first := true
		for u, err := range s1.Subscribe(ctx) {
			if err != nil {
				panic(fmt.Sprintf("E20: paced subscriber: %v", err))
			}
			if first {
				first = false
				ready.Done()
			}
			if u.Epoch >= target {
				break
			}
			time.Sleep(pace)
		}
	}()
	ready.Wait()
	d1 := apply(s1)
	done.Wait()

	n := float64(len(stream))
	return n / d0.Seconds(), n / d1.Seconds()
}

// e20HTTP measures CDC ingest over the wire: the same `changes`-line NDJSON
// stream is pushed through one streamed POST /ingest and through equivalent
// sequential POST /batch calls (same wave size), against two sessions of the
// same server.  Both paths must land on the identical final value.
func e20HTTP(db *workload.Database, changes, wave int) (ingestRate, batchRate float64) {
	srv := server.New(server.Options{})
	srv.MountDatabaseValue("default", agg.FromStructure(db.A, db.Weights()))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mkSession := func(name string) {
		body, _ := json.Marshal(map[string]any{
			"name": name, "expr": e20Expr, "dynamic": []string{"E", "S"},
		})
		resp, err := http.Post(ts.URL+"/session", "application/json", bytes.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			panic(fmt.Sprintf("E20: create session %s: %v (status %v)", name, err, resp))
		}
		resp.Body.Close()
	}
	mkSession("ingest")
	mkSession("batch")

	all := make([]workload.Change, 0, changes)
	for c := range workload.ChangeStream(db, changes, 17) {
		all = append(all, c)
	}

	// One streamed POST /ingest carrying every change as NDJSON lines.
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	for _, c := range all {
		if err := enc.Encode(c); err != nil {
			panic(fmt.Sprintf("E20: encode: %v", err))
		}
	}
	ingestDur := timeIt(func() {
		resp, err := http.Post(
			fmt.Sprintf("%s/ingest?session=ingest&wave=%d&ack=16", ts.URL, wave),
			"application/x-ndjson", bytes.NewReader(ndjson.Bytes()))
		if err != nil {
			panic(fmt.Sprintf("E20: ingest: %v", err))
		}
		defer resp.Body.Close()
		var last map[string]any
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				panic(fmt.Sprintf("E20: ingest ack %q: %v", sc.Text(), err))
			}
		}
		if last["done"] != true || last["applied"] != float64(changes) {
			panic(fmt.Sprintf("E20: ingest finished with %v, want done applied=%d", last, changes))
		}
	})

	// The same stream as sequential /batch calls of one wave each.
	bodies := make([][]byte, 0, (changes+wave-1)/wave)
	for i := 0; i < len(all); i += wave {
		b, _ := json.Marshal(map[string]any{"session": "batch", "updates": all[i:min(i+wave, len(all))]})
		bodies = append(bodies, b)
	}
	batchDur := timeIt(func() {
		for _, b := range bodies {
			resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(b))
			if err != nil {
				panic(fmt.Sprintf("E20: batch: %v", err))
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("E20: batch status %d", resp.StatusCode))
			}
		}
	})

	point := func(name string) string {
		body, _ := json.Marshal(map[string]any{"session": name})
		resp, err := http.Post(ts.URL+"/point", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(fmt.Sprintf("E20: point %s: %v", name, err))
		}
		defer resp.Body.Close()
		var out struct {
			Value string `json:"value"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			panic(fmt.Sprintf("E20: point %s: %v", name, err))
		}
		return out.Value
	}
	if vi, vb := point("ingest"), point("batch"); vi != vb {
		panic(fmt.Sprintf("E20: ingest and batch landed on different values %s vs %s", vi, vb))
	}

	return float64(changes) / ingestDur.Seconds(), float64(changes) / batchDur.Seconds()
}

// e20Measure runs the full E20 suite at one size.
func e20Measure(n, updates, changes int) e20Measurements {
	db := workload.Grid(isqrt(n), isqrt(n), 11)

	s, stream := e20Session(db, updates, 7)
	p50, p99 := e20PushLatency(s, stream, 8, 200*time.Microsecond)
	s.Close()

	s, stream = e20Session(db, updates, 8)
	delivered, coalesce, epochSkip := e20SlowClient(s, stream, 100*time.Microsecond, 2*time.Millisecond)
	s.Close()

	_, stream = e20Session(db, updates, 9)
	solo, paced := e20WriterRate(db, stream, 2*time.Millisecond)

	ingestRate, batchRate := e20HTTP(db, changes, 512)

	return e20Measurements{
		n: n, updates: updates, changes: changes,
		p50: p50, p99: p99,
		delivered: delivered, coalesce: coalesce, epochSkip: epochSkip,
		soloRate: solo, pacedRate: paced,
		ingestRate: ingestRate, batchRate: batchRate,
	}
}

func isqrt(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// E20LivePush measures the live push subsystem end to end: commit→client
// push latency under 8 subscribers, the coalescing a slow client gets from
// the one-slot mailbox, the writer's throughput with and without a paced
// subscriber attached, and CDC /ingest throughput against equivalent /batch
// calls.
func E20LivePush(sizes []int, updates, changes int) *Table {
	t := &Table{
		ID:    "E20",
		Title: "Live push: subscription latency, coalescing and streaming ingest",
		Claim: "committed epochs reach subscribers with low commit→push latency, slow clients coalesce (ratio > 1) instead of stalling the writer — a paced subscriber costs the writer at most 10% — and NDJSON /ingest sustains at least batched-POST throughput",
		Header: []string{
			"n", "push p50", "push p99", "slow-client coalesce", "epochs/delivery",
			"upd/s 0 subs", "upd/s +1 paced", "Δwriter",
			"ingest chg/s", "batch chg/s",
		},
	}
	for _, n := range sizes {
		m := e20Measure(n, updates, changes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(m.n),
			dur(m.p50), dur(m.p99),
			fmt.Sprintf("%.1fx", m.coalesce), fmt.Sprintf("%.1fx", m.epochSkip),
			fmt.Sprintf("%.0f", m.soloRate), fmt.Sprintf("%.0f", m.pacedRate),
			fmt.Sprintf("%+.1f%%", 100*(m.pacedRate-m.soloRate)/m.soloRate),
			fmt.Sprintf("%.0f", m.ingestRate), fmt.Sprintf("%.0f", m.batchRate),
		})
	}
	t.Notes = append(t.Notes,
		"push latency is Update.Lag: time from a commit to its re-evaluated update becoming deliverable, pooled over 8 subscribers under a paced write stream",
		"the slow client sleeps per delivery under a paced writer; coalesce counts evaluations folded per delivered update, epochs/delivery the committed epochs it spanned — both are > 1 exactly when the latest-epoch-wins mailbox is absorbing the lag",
		"upd/s compares the identical Set loop on a session whose hub was never created (0 subs) against one with a paced subscriber attached",
		"ingest streams one NDJSON POST /ingest in 512-change waves against sequential 512-change /batch POSTs over loopback HTTP; both paths must land on the identical final value")
	return t
}

// e20Check runs E20 as a pass/fail smoke check (used by CI): the slow
// client's coalescing ratio must exceed 1, a paced subscriber may cost the
// writer at most 10% of its zero-subscriber rate, the push p99 must be
// measured and sane, and streamed ingest must not fall behind batched POSTs
// by more than 2x (it is usually ahead).  Timing attempts are re-measured up
// to two more times so co-tenant noise cannot red-light an unrelated change.
func e20Check() error {
	const (
		writerKeep = 0.90
		p99Limit   = 250 * time.Millisecond
		ingestKeep = 0.5
	)
	var m e20Measurements
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		m = e20Measure(900, 2000, 10000)
		err = nil
		switch {
		case m.p99 <= 0:
			err = fmt.Errorf("E20: no push latency was measured (p99 = %v)", m.p99)
		case m.p99 > p99Limit:
			err = fmt.Errorf("E20: push p99 %v exceeds %v", m.p99, p99Limit)
		case m.coalesce <= 1:
			err = fmt.Errorf("E20: slow client coalescing ratio %.2f, want > 1", m.coalesce)
		case m.pacedRate < writerKeep*m.soloRate:
			err = fmt.Errorf("E20: writer at %.0f upd/s with a paced subscriber is below %.0f%% of its %.0f upd/s solo rate",
				m.pacedRate, 100*writerKeep, m.soloRate)
		case m.ingestRate < ingestKeep*m.batchRate:
			err = fmt.Errorf("E20: streamed ingest %.0f chg/s fell below %.0f%% of batched %.0f chg/s",
				m.ingestRate, 100*ingestKeep, m.batchRate)
		}
		if err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("E20 ok: n=%d, push p50/p99 %v/%v under 8 subs, slow client coalesce %.1fx (%.1fx epochs/delivery, %d delivered), writer %.0f upd/s solo vs %.0f with a paced sub (%+.1f%%), ingest %.0f chg/s vs batch %.0f\n",
		m.n, m.p50, m.p99, m.coalesce, m.epochSkip, m.delivered,
		m.soloRate, m.pacedRate, 100*(m.pacedRate-m.soloRate)/m.soloRate,
		m.ingestRate, m.batchRate)
	return nil
}
