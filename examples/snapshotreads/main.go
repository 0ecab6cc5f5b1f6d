// Snapshot reads through the repro/agg facade: sessions version their gate
// values by epoch (MVCC), so point reads never wait on writes and never fail
// busy — a read pins the last committed epoch, answers from it, and lets the
// writer keep committing.  Session.Snapshot goes further and hands out a
// Reader pinned at one epoch for as long as the caller needs: a consistent
// view for multi-read transactions, reports, or streaming enumeration while
// the session keeps moving underneath.  A Reader is one pin on the session's
// one clock: the value it evaluates and the answers it enumerates belong to
// the same epoch.
//
//	go run ./examples/snapshotreads
package main

import (
	"context"
	"fmt"
	"sync"

	"repro/agg"
)

func main() {
	ctx := context.Background()

	eng, err := agg.OpenSource(agg.Source{Kind: "pref-attach", N: 2000, Degree: 2, Seed: 7})
	if err != nil {
		panic(err)
	}
	db := eng.Database()
	fmt.Printf("database: %d elements, %d tuples\n", db.Elements(), db.TupleCount())

	// A point query with one free variable: weighted 2-paths out of x.
	p, err := eng.Prepare(ctx, "sum y, z . [E(x,y) & E(y,z) & !(x = z)] * u(y) * u(z)")
	if err != nil {
		panic(err)
	}
	s, err := p.Session()
	if err != nil {
		panic(err)
	}
	defer s.Close()

	// --- Reads never wait on writes ---------------------------------------
	//
	// A writer streams weight updates while a reader issues point queries.
	// Updates serialise against each other (a concurrent Set would fail fast
	// with ErrSessionBusy), but every Eval below answers from the last
	// committed epoch under a shared lock: no busy errors, and at most one
	// write's commit to wait for.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			if err := s.Set(agg.SetWeight("u", []int{i % db.Elements()}, int64(i%9+1))); err != nil {
				panic(err)
			}
		}
	}()
	busy := 0
	for i := 0; i < 200; i++ {
		if _, err := s.Eval(ctx, i%db.Elements()); err != nil {
			busy++
		}
	}
	wg.Wait()
	fmt.Printf("200 point reads during a 500-update stream: %d failures\n", busy)

	// --- A Reader pins one epoch ------------------------------------------
	//
	// Snapshot freezes the session's current epoch.  Later commits advance
	// the live session but the Reader keeps answering from its pinned epoch;
	// the undo history needed to reconstruct it is retained until Close.
	r, err := s.Snapshot()
	if err != nil {
		panic(err)
	}
	// Edges point from new vertices to old ones, so the last vertex has
	// outgoing 2-paths; bumping the weight of one of its successors moves
	// the live value while the pinned Reader stays put.
	x := db.Elements() - 1
	var succ int
	for _, e := range db.Tuples("E") {
		if e[0] == x {
			succ = e[1]
			break
		}
	}
	pinned, _ := r.Eval(ctx, x)
	live, _ := s.Eval(ctx, x)
	fmt.Printf("epoch %d pinned: reader f(x)=%s, live f(x)=%s\n", r.Epoch(), pinned, live)

	if err := s.Set(agg.SetWeight("u", []int{succ}, 1000)); err != nil {
		panic(err)
	}
	pinnedAfter, _ := r.Eval(ctx, x)
	liveAfter, _ := s.Eval(ctx, x)
	fmt.Printf("after one more commit (epoch %d): reader f(x)=%s (unchanged), live f(x)=%s\n",
		s.Epoch(), pinnedAfter, liveAfter)
	if pinnedAfter != pinned {
		panic("pinned reader moved")
	}
	fmt.Printf("undo history retained for the reader: %d bytes\n", s.RetainedUndoBytes())

	// Closing the last reader lets the session truncate the history: the
	// writer's steady state with no readers is allocation-free again.
	r.Close()
	fmt.Printf("after closing the reader: %d bytes retained\n", s.RetainedUndoBytes())

	// --- One pin serves the value and the answer set ----------------------
	//
	// A formula session over a dynamic relation keeps two engine states on
	// its one circuit — is this tuple an answer (Eval), and which tuples are
	// (Enumerate, AnswerCount) — under one clock.  A write commits both as one
	// epoch and a Reader is one pin on that clock, so across a write the
	// Reader's Eval and Enumerate keep agreeing with each other, and so do
	// the live session's.
	grid, err := agg.OpenSource(agg.Source{Kind: "grid", N: 64, Seed: 3})
	if err != nil {
		panic(err)
	}
	q, err := grid.Prepare(ctx, "E(x,y) & S(x)", agg.WithDynamic("S"))
	if err != nil {
		panic(err)
	}
	fs, err := q.Session()
	if err != nil {
		panic(err)
	}
	defer fs.Close()
	fr, err := fs.Snapshot()
	if err != nil {
		panic(err)
	}
	defer fr.Close()
	// The smallest answer (a,b), and how many answers start at a.
	count := func(r *agg.Reader, a int) (first agg.Answer, fromA int) {
		for ans, err := range r.Enumerate(ctx) {
			if err != nil {
				panic(err)
			}
			if first == nil || ans[0] < first[0] || (ans[0] == first[0] && ans[1] < first[1]) {
				first = ans
			}
			if ans[0] == a {
				fromA++
			}
		}
		return first, fromA
	}
	ans, _ := count(fr, -1)
	a, b := ans[0], ans[1]
	// Removing a from S removes every answer (a, ·) — for the live session.
	if err := fs.Set(agg.SetTuple("S", []int{a}, false)); err != nil {
		panic(err)
	}
	now, err := fs.Snapshot()
	if err != nil {
		panic(err)
	}
	defer now.Close()
	for _, rd := range []*agg.Reader{fr, now} {
		v, _ := rd.Eval(ctx, a, b)
		_, fromA := count(rd, a)
		total, _ := rd.AnswerCount(ctx)
		fmt.Printf("reader at epoch %d: Eval(%d,%d)=%s, Enumerate yields %d answers (%d,·) of %d\n",
			rd.Epoch(), a, b, v, fromA, a, total)
	}
}
