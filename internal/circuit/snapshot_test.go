package circuit_test

import (
	"fmt"
	"math/rand"
	. "repro/internal/circuit"
	"repro/internal/circuit/circuittest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/semiring"
	"repro/internal/structure"
)

// TestSnapshotResolvesPinnedEpoch pins snapshots at several points of an
// update stream and checks that each keeps answering with the values of its
// own epoch — output and interior gates alike — no matter how far the writer
// has moved on.  All three maintenance strategies are exercised.
func TestSnapshotResolvesPinnedEpoch(t *testing.T) {
	n := 4
	c := buildTriangleLike(n)
	r := rand.New(rand.NewSource(41))

	type pinned struct {
		snap  *DynSnapshot[int64]
		value int64
		gates map[int]int64
	}

	for _, tc := range []struct {
		name string
		s    semiring.Semiring[int64]
		draw func() int64
	}{
		{"Nat-generic", semiring.Nat, func() int64 { return int64(r.Intn(5)) }},
		{"Int-ring", semiring.Int, func() int64 { return int64(r.Intn(9) - 4) }},
		{"Mod7-finite", semiring.NewModular(7), func() int64 { return int64(r.Intn(7)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := map[structure.WeightKey]int64{}
			val := func(in Input) (int64, bool) { v, ok := vals[label(in)]; return v, ok }
			d := NewDynamicProgram[int64](c.Program(), tc.s, val)
			prog := c.Program()

			var pins []pinned
			record := func() {
				sn := d.Snapshot()
				p := pinned{snap: sn, value: d.Value(), gates: map[int]int64{}}
				for g := 0; g < prog.NumGates(); g += 3 {
					p.gates[g] = d.GateValue(g)
				}
				pins = append(pins, p)
			}

			record() // initial state
			for step := 0; step < 60; step++ {
				k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
				vals[k] = tc.draw()
				d.SetInput(k, vals[k])
				if step%17 == 0 {
					record()
				}
			}

			for i, p := range pins {
				if got := p.snap.Value(); !tc.s.Equal(got, p.value) {
					t.Errorf("pin %d: Value = %d, want %d", i, got, p.value)
				}
				for g, want := range p.gates {
					if got := p.snap.GateValue(g); !tc.s.Equal(got, want) {
						t.Errorf("pin %d gate %d: %d, want %d", i, g, got, want)
					}
				}
			}
			// Release in a scrambled order; later snapshots must survive the
			// truncation that follows each release.
			released := map[int]bool{}
			for _, i := range r.Perm(len(pins)) {
				pins[i].snap.Release()
				pins[i].snap.Release() // idempotent
				released[i] = true
				for j, p := range pins {
					if released[j] {
						continue
					}
					if got := p.snap.Value(); !tc.s.Equal(got, p.value) {
						t.Errorf("after releasing pin %d, pin %d resolves %d, want %d", i, j, got, p.value)
					}
				}
			}
			if got := d.Clock().Retained(); got != 0 {
				t.Errorf("retained undo bytes %d after all snapshots released, want 0", got)
			}
		})
	}
}

// TestSnapshotEvalWithMatchesReference runs point-query style overrides on a
// pinned snapshot while the writer keeps mutating, checking the overlay wave
// against the reference walk of the pinned state + overrides.  The circuit
// has a 2-row and a 3-row permanent; the carriers cover the generic, ring and
// finite adder rules and, with min-plus, a semiring that is neither a ring
// nor finite, so the shared permanent evaluator runs under every view.
func TestSnapshotEvalWithMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	t.Run("Nat-generic", func(t *testing.T) {
		checkSnapshotEvalWith[int64](t, r, semiring.Nat, func() int64 { return int64(r.Intn(5)) })
	})
	t.Run("Int-ring", func(t *testing.T) {
		checkSnapshotEvalWith[int64](t, r, semiring.Int, func() int64 { return int64(r.Intn(9) - 4) })
	})
	t.Run("Mod7-finite", func(t *testing.T) {
		checkSnapshotEvalWith[int64](t, r, semiring.NewModular(7), func() int64 { return int64(r.Intn(7)) })
	})
	t.Run("MinPlus", func(t *testing.T) {
		checkSnapshotEvalWith[semiring.Ext](t, r, semiring.MinPlus, func() semiring.Ext {
			if r.Intn(4) == 0 {
				return semiring.Infinite
			}
			return semiring.Fin(int64(r.Intn(10)))
		})
	})
}

func checkSnapshotEvalWith[T any](t *testing.T, r *rand.Rand, s semiring.Semiring[T], draw func() T) {
	n := 4
	c := buildTriangleLike(n)
	randomKey := func() structure.WeightKey { return key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n)) }
	vals := map[structure.WeightKey]T{}
	for a := 0; a < n; a++ {
		for _, w := range []string{"u", "v", "w"} {
			vals[key(w, a)] = draw()
		}
	}
	val := func(in Input) (T, bool) { v, ok := vals[label(in)]; return v, ok }
	d := NewDynamicProgram[T](c.Program(), s, val)

	// Pin, remember the pinned assignment, then let the writer move on.
	snap := d.Snapshot()
	defer snap.Release()
	pinnedVals := map[structure.WeightKey]T{}
	for k, v := range vals {
		pinnedVals[k] = v
	}
	pinnedVal := func(in Input) (T, bool) { v, ok := pinnedVals[label(in)]; return v, ok }
	for step := 0; step < 25; step++ {
		k := randomKey()
		vals[k] = draw()
		d.SetInput(k, vals[k])
	}

	for trial := 0; trial < 20; trial++ {
		over := map[structure.WeightKey]T{}
		var changes []Leaf[T]
		for i := 0; i < 1+r.Intn(3); i++ {
			k, v := randomKey(), draw()
			over[k] = v
			changes = append(changes, Leaf[T]{Gate: c.Program().InputGate(k), Value: v})
		}
		refVal := func(in Input) (T, bool) {
			k := label(in)
			if v, ok := over[k]; ok {
				return v, true
			}
			return pinnedVal(in)
		}
		want := circuittest.EvaluateAll[T](c, s, refVal)[c.Output]
		if got := snap.EvalWith(changes); !s.Equal(got, want) {
			t.Fatalf("trial %d: snapshot EvalWith = %s, reference = %s", trial, s.Format(got), s.Format(want))
		}
		// Repeated use of one handle must not leak overlay state.
		if got := snap.Value(); !s.Equal(got, circuittest.EvaluateAll[T](c, s, pinnedVal)[c.Output]) {
			t.Fatalf("trial %d: snapshot Value drifted after EvalWith", trial)
		}
	}
}

// TestSnapshotOverlaysAreNotShared reads one Dynamic through EvalWith from
// several goroutines at once, every read on a fresh handle as a session read
// is, each against the reference walk of its own overrides: the overlays come
// from one pool, and a read must neither see another's overrides nor race it.
func TestSnapshotOverlaysAreNotShared(t *testing.T) {
	const n, readers, reads = 4, 4, 200
	c := buildTriangleLike(n)
	vals := map[structure.WeightKey]int64{}
	for a := 0; a < n; a++ {
		for _, w := range []string{"u", "v", "w"} {
			vals[key(w, a)] = int64(a + 1)
		}
	}
	val := func(in Input) (int64, bool) { v, ok := vals[label(in)]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)

	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for read := 0; read < reads; read++ {
				over := map[structure.WeightKey]int64{}
				var changes []Leaf[int64]
				for j := 0; j < 1+r.Intn(3); j++ {
					k, v := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n)), int64(r.Intn(5))
					over[k] = v
					changes = append(changes, Leaf[int64]{Gate: c.Program().InputGate(k), Value: v})
				}
				want := circuittest.EvaluateAll[int64](c, semiring.Nat, func(in Input) (int64, bool) {
					k := label(in)
					if v, ok := over[k]; ok {
						return v, true
					}
					return val(in)
				})[c.Output]
				epoch := d.Clock().Pin()
				got := d.At(epoch).EvalWith(changes)
				d.Clock().Unpin(epoch)
				if got != want {
					t.Errorf("reader %d, read %d: EvalWith(%v) = %d, reference = %d", seed, read, changes, got, want)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
}

// TestSnapshotConcurrentReadersObserveCommittedEpochs is the race-enabled
// stress test of the MVCC contract at the circuit layer: one writer streams
// single-input commits while several reader goroutines pin snapshots and
// check the resolved output against the sequential oracle recorded for their
// pinned epoch.
func TestSnapshotConcurrentReadersObserveCommittedEpochs(t *testing.T) {
	n := 4
	c := buildTriangleLike(n)
	vals := map[structure.WeightKey]int64{}
	val := func(in Input) (int64, bool) { v, ok := vals[label(in)]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)

	const (
		updates = 150
		readers = 4
	)
	var oracle sync.Map // epoch → expected output value
	oracle.Store(d.Clock().Epoch(), d.Value())

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < updates; i++ {
			k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
			vals2 := int64(r.Intn(5))
			d.SetInput(k, vals2)
			// The oracle entry lands after the commit; readers that pinned
			// this epoch first spin until it appears.
			oracle.Store(d.Clock().Epoch(), d.Value())
		}
	}()

	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				// The session form: pin the clock, resolve At the pin, unpin.
				epoch := d.Clock().Pin()
				snap := d.At(epoch)
				got := snap.Value()
				var want any
				for {
					var ok bool
					if want, ok = oracle.Load(epoch); ok {
						break
					}
					runtime.Gosched()
				}
				if got != want.(int64) {
					errs <- errf("reader %d at epoch %d: snapshot value %d, oracle %d", seed, epoch, got, want)
					d.Clock().Unpin(epoch)
					return
				}
				if r.Intn(2) == 0 {
					// Point-style overlay read must not disturb the pin.
					_ = snap.EvalWith([]Leaf[int64]{{Gate: c.Program().InputGate(key("u", r.Intn(n))), Value: int64(r.Intn(5))}})
					if again := snap.Value(); again != got {
						errs <- errf("reader %d: Value changed %d → %d after EvalWith", seed, got, again)
						d.Clock().Unpin(epoch)
						return
					}
				}
				d.Clock().Unpin(epoch)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := d.Clock().Retained(); got != 0 {
		t.Errorf("retained undo bytes %d after all readers done, want 0", got)
	}
}

// TestSnapshotReclamationBoundsUndoMemory checks the truncation contract:
// history grows only while a pin needs it and is dropped as soon as the
// oldest pin releases.
func TestSnapshotReclamationBoundsUndoMemory(t *testing.T) {
	n := 4
	c := buildTriangleLike(n)
	vals := map[structure.WeightKey]int64{}
	val := func(in Input) (int64, bool) { v, ok := vals[label(in)]; return v, ok }
	d := NewDynamicProgram[int64](c.Program(), semiring.Nat, val)
	r := rand.New(rand.NewSource(5))
	update := func() {
		k := key([]string{"u", "v", "w"}[r.Intn(3)], r.Intn(n))
		vals[k]++
		d.SetInput(k, vals[k])
	}

	// No pins: a long stream retains nothing.
	for i := 0; i < 50; i++ {
		update()
	}
	if got := d.Clock().Retained(); got != 0 {
		t.Fatalf("retained %d bytes with no snapshots, want 0", got)
	}

	old := d.Snapshot()
	for i := 0; i < 10; i++ {
		update()
	}
	grew := d.Clock().Retained()
	if grew == 0 {
		t.Fatal("no undo history retained while a snapshot is pinned")
	}
	recent := d.Snapshot()
	for i := 0; i < 10; i++ {
		update()
	}
	// Releasing the old pin must shrink history to what the recent pin needs.
	beforeRelease := d.Clock().Retained()
	old.Release()
	afterOld := d.Clock().Retained()
	if afterOld == 0 {
		t.Fatal("history for the recent pin was dropped with the old one")
	}
	if afterOld >= beforeRelease {
		t.Fatalf("history did not shrink after releasing the oldest pin (%d → %d bytes)", beforeRelease, afterOld)
	}
	recent.Release()
	if got := d.Clock().Retained(); got != 0 {
		t.Fatalf("retained %d bytes after all pins released, want 0", got)
	}
	for i := 0; i < 20; i++ {
		update()
	}
	if got := d.Clock().Retained(); got != 0 {
		t.Fatalf("retained %d bytes on the pin-free path, want 0", got)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
