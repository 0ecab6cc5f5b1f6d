package enumerate

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/compile"
	"repro/internal/logic"
	"repro/internal/structure"
)

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// TestEnumeratorSnapshotPinsValues pins snapshots of a hand-built circuit
// (add, mul and permanent gates) along a stream of presence flips and checks
// that each keeps streaming exactly the monomial multiset of its own epoch.
func TestEnumeratorSnapshotPinsValues(t *testing.T) {
	c := circuit.NewBuilder()
	a := input(c, "a", 0)
	b := input(c, "b", 0)
	d := input(c, "d", 0)
	e4 := input(c, "e", 0)
	sum := c.Add(a, b, d, b)
	prod := c.Mul(sum, a)
	perm := c.Perm(2, 3, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: a}, {Row: 1, Col: 0, Gate: b},
		{Row: 0, Col: 1, Gate: d}, {Row: 1, Col: 1, Gate: e4},
		{Row: 0, Col: 2, Gate: b},
	})
	c.SetOutput(c.Add(prod, c.ConstInt(2), perm, c.Mul(b, d)))

	inputs := map[structure.WeightKey]val{
		key("a", 0): gen(0, 1), key("b", 0): gen(1, 2),
		key("d", 0): {Generator{Var: 0, Elem: 3}, false}, key("e", 0): member(true),
	}
	values := lookup(inputs)
	e := NewProgram(c.Program(), values, nil)

	type pinned struct {
		epoch uint64
		snap  *Snapshot
		want  []string // monomial multiset at the pinned epoch
	}
	oracle := func() []string { return explicit(c.Program(), values) }
	record := func() pinned {
		epoch := e.clock.Pin()
		return pinned{epoch, e.At(epoch), oracle()}
	}

	pins := []pinned{record()}
	r := rand.New(rand.NewSource(31))
	keys := []structure.WeightKey{key("a", 0), key("b", 0), key("d", 0), key("e", 0)}
	for step := 0; step < 30; step++ {
		k := keys[r.Intn(len(keys))]
		v := inputs[k]
		v.present = !v.present
		inputs[k] = v
		setInputs(e, circuit.InputChange[bool]{Key: k, Value: v.present})
		if step%7 == 0 {
			pins = append(pins, record())
		}
	}

	for i, p := range pins {
		if got := drain(p.snap.Cursor(0)); !equalStringSlices(got, p.want) {
			t.Errorf("pin %d (epoch %d): snapshot enumerates %v, want %v", i, p.epoch, got, p.want)
		}
		if p.snap.Empty() != (len(p.want) == 0) {
			t.Errorf("pin %d: Empty() = %v with %d monomials expected", i, p.snap.Empty(), len(p.want))
		}
	}
	// The live enumerator still answers the present.
	if got := drain(e.Cursor(0)); !equalStringSlices(got, oracle()) {
		t.Errorf("live enumerator drifted: %v vs %v", got, oracle())
	}
	for _, i := range r.Perm(len(pins)) {
		e.clock.Unpin(pins[i].epoch)
	}
	if got := e.clock.Retained(); got != 0 {
		t.Errorf("retained undo bytes %d after all snapshots released, want 0", got)
	}
}

// TestSnapshotPermCursorAfterColumnFlip opens a snapshot's first cursor over
// a permanent gate only after the writer has flipped one of the gate's
// columns, and a second one after a further flip: the snapshot derives its
// column types from the pinned emptiness bits (through the undo digest) with
// the same constructor the writer's metadata came from, memoises them, and
// must keep streaming the pinned epoch while the live refreshGate moves
// columns between the type lists.
func TestSnapshotPermCursorAfterColumnFlip(t *testing.T) {
	const rows, cols = 2, 3
	c := circuit.NewBuilder()
	inputs := map[structure.WeightKey]val{}
	var entries []circuit.PermEntry
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			inputs[key("m", row, col)] = gen(row, col)
			entries = append(entries, circuit.PermEntry{Row: row, Col: col, Gate: input(c, "m", row, col)})
		}
	}
	c.SetOutput(c.Perm(rows, cols, entries))
	values := lookup(inputs)
	e := NewProgram(c.Program(), values, nil)
	oracle := func() []string { return explicit(c.Program(), values) }
	drop := func(k structure.WeightKey) {
		inputs[k] = val{inputs[k].g, false}
		setInputs(e, circuit.InputChange[bool]{Key: k, Value: false})
	}

	pinned := oracle()
	if len(pinned) != cols*(cols-1) {
		t.Fatalf("full %d×%d permanent has %d monomials, want %d", rows, cols, len(pinned), cols*(cols-1))
	}
	epoch := e.clock.Pin()
	defer e.clock.Unpin(epoch)
	snap := e.At(epoch)

	// Column 1 goes from type {0,1} to the empty type.
	drop(key("m", 0, 1))
	drop(key("m", 1, 1))
	if got := drain(snap.Cursor(rows)); !equalStringSlices(got, pinned) {
		t.Errorf("snapshot cursor opened after the flip enumerates %v, want the pinned %v", got, pinned)
	}
	if got := drain(e.Cursor(rows)); !equalStringSlices(got, oracle()) || len(got) == len(pinned) {
		t.Errorf("live cursor after the flip enumerates %v, want %v", got, oracle())
	}

	// Column 2 loses row 0; the memoised snapshot metadata must not follow.
	drop(key("m", 0, 2))
	if got := drain(snap.Cursor(rows)); !equalStringSlices(got, pinned) {
		t.Errorf("second snapshot cursor enumerates %v, want the pinned %v", got, pinned)
	}
	if got := drain(e.Cursor(rows)); !equalStringSlices(got, oracle()) {
		t.Errorf("live cursor after the second flip enumerates %v, want %v", got, oracle())
	}
	lateEpoch := e.clock.Pin()
	defer e.clock.Unpin(lateEpoch)
	late := e.At(lateEpoch)
	if got := drain(late.Cursor(rows)); !equalStringSlices(got, oracle()) {
		t.Errorf("snapshot pinned after the flips enumerates %v, want %v", got, oracle())
	}
}

// TestAnswersSnapshotPinnedEpochs pins answer-set snapshots along a stream
// of dynamic tuple updates and checks Collect, Count and Empty against the
// naive answers of a frozen mirror structure.
func TestAnswersSnapshotPinnedEpochs(t *testing.T) {
	a := enumerationStructure(9, 20, 29)
	phi := logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))
	vars := []string{"x", "y"}
	ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}

	type pinned struct {
		epoch  uint64
		snap   *AnswersSnapshot
		mirror *structure.Structure
	}
	record := func() pinned {
		epoch := ans.enum.clock.Pin()
		return pinned{epoch, ans.At(epoch), a}
	}

	pins := []pinned{record()}
	r := rand.New(rand.NewSource(37))
	edges := append([]structure.Tuple(nil), a.Tuples("E")...)
	for step := 0; step < 30; step++ {
		base := edges[r.Intn(len(edges))]
		target := base
		if r.Intn(2) == 0 {
			target = structure.Tuple{base[1], base[0]}
		}
		present := r.Intn(2) == 0
		if err := ans.SetTuple("E", target, present); err != nil {
			t.Fatalf("SetTuple: %v", err)
		}
		a = setMirror(a, "E", target, present)
		if step%9 == 0 {
			pins = append(pins, record())
		}
	}

	for i, p := range pins {
		want := sortTuples(logic.Answers(phi, p.mirror, vars))
		got := sortTuples(p.snap.Collect(0))
		if !equalStringSlices(got, want) {
			t.Errorf("pin %d (epoch %d): snapshot answers %v, want %v", i, p.epoch, got, want)
		}
		if p.snap.Count() != int64(len(want)) {
			t.Errorf("pin %d: Count() = %d, want %d", i, p.snap.Count(), len(want))
		}
		if p.snap.Empty() != (len(want) == 0) {
			t.Errorf("pin %d: Empty() inconsistent", i)
		}
	}
	if ans.enum.clock.Retained() == 0 {
		t.Error("no undo history retained while snapshots are pinned")
	}
	for _, p := range pins {
		ans.enum.clock.Unpin(p.epoch)
	}
	if got := ans.enum.clock.Retained(); got != 0 {
		t.Errorf("retained undo bytes %d after all snapshots released, want 0", got)
	}
}

// TestAnswersSnapshotConcurrentReaders is the race-enabled stress test of
// the MVCC contract at the enumeration layer: one writer streams tuple
// updates while reader goroutines pin snapshots and check their enumerated
// answer set against the sequential oracle recorded for their pinned epoch.
func TestAnswersSnapshotConcurrentReaders(t *testing.T) {
	a := enumerationStructure(8, 18, 41)
	phi := logic.Conj(logic.R("E", "x", "y"), logic.Neg(logic.R("E", "y", "x")))
	vars := []string{"x", "y"}
	ans, err := EnumerateAnswers(a, phi, vars, compile.Options{DynamicRelations: []string{"E"}})
	if err != nil {
		t.Fatalf("EnumerateAnswers: %v", err)
	}

	const (
		updates = 120
		readers = 4
	)
	var oracle sync.Map // epoch → sorted answer keys
	oracle.Store(ans.enum.clock.Epoch(), sortTuples(ans.Collect(0)))

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		r := rand.New(rand.NewSource(43))
		edges := append([]structure.Tuple(nil), a.Tuples("E")...)
		for i := 0; i < updates; i++ {
			base := edges[r.Intn(len(edges))]
			target := base
			if r.Intn(2) == 0 {
				target = structure.Tuple{base[1], base[0]}
			}
			if err := ans.SetTuple("E", target, r.Intn(2) == 0); err != nil {
				t.Errorf("SetTuple: %v", err)
				return
			}
			// The oracle entry lands after the commit; readers that pinned
			// this epoch first spin until it appears.
			oracle.Store(ans.enum.clock.Epoch(), sortTuples(ans.Collect(0)))
		}
	}()

	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				epoch := ans.enum.clock.Pin()
				snap := ans.At(epoch)
				got := sortTuples(snap.Collect(0))
				var want any
				for {
					var ok bool
					if want, ok = oracle.Load(epoch); ok {
						break
					}
					runtime.Gosched()
				}
				if !equalStringSlices(got, want.([]string)) {
					errs <- errf("reader %d at epoch %d: snapshot answers %v, oracle %v", seed, epoch, got, want)
					ans.enum.clock.Unpin(epoch)
					return
				}
				if int64(len(got)) != snap.Count() {
					errs <- errf("reader %d at epoch %d: Count %d, enumerated %d", seed, epoch, snap.Count(), len(got))
					ans.enum.clock.Unpin(epoch)
					return
				}
				ans.enum.clock.Unpin(epoch)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ans.enum.clock.Retained(); got != 0 {
		t.Errorf("retained undo bytes %d after all readers done, want 0", got)
	}
}

// TestRepeatedWires wires one input twice into an addition gate and into two
// cells of one permanent, and an interior gate twice into the output sum, and
// checks the slot-addressed refresh against the explicit monomial multiset:
// live after every batch, and at a Snapshot pinned one batch earlier.  Every
// batch first assigns its key the opposite of its new presence, so the key's
// slots are enlisted twice in one wave when the presence does not change.
func TestRepeatedWires(t *testing.T) {
	c := circuit.NewBuilder()
	x, y, z := input(c, "w", 0), input(c, "w", 1), input(c, "w", 2)
	sum := c.Add(x, x, y)
	pm := c.Perm(2, 3, []circuit.PermEntry{
		{Row: 0, Col: 0, Gate: x}, {Row: 0, Col: 1, Gate: y}, {Row: 0, Col: 2, Gate: z},
		{Row: 1, Col: 0, Gate: z}, {Row: 1, Col: 1, Gate: x}, {Row: 1, Col: 2, Gate: sum},
	})
	c.SetOutput(c.Add(c.Mul(sum, pm), sum, sum))

	inputs := map[structure.WeightKey]val{
		key("w", 0): {Generator{Var: 0, Elem: 0}, false}, key("w", 1): gen(1, 1), key("w", 2): member(true),
	}
	values := lookup(inputs)
	oracle := func() []string { return explicit(c.Program(), values) }
	e := NewProgram(c.Program(), values, nil)
	r := rand.New(rand.NewSource(61))
	for step := 0; step < 60; step++ {
		epoch := e.clock.Pin()
		snap, pinned := e.At(epoch), oracle()

		k, present := key("w", r.Intn(3)), r.Intn(2) == 0
		inputs[k] = val{inputs[k].g, present}
		setInputs(e, circuit.InputChange[bool]{Key: k, Value: !present}, circuit.InputChange[bool]{Key: k, Value: present})
		if got, want := drain(e.Cursor(0)), oracle(); !equalStringSlices(got, want) {
			t.Fatalf("step %d: live enumerator streams %v, want %v", step, got, want)
		}
		if got := drain(snap.Cursor(0)); !equalStringSlices(got, pinned) {
			t.Fatalf("step %d: snapshot one batch stale streams %v, want %v", step, got, pinned)
		}
		e.clock.Unpin(epoch)
	}
}

// TestUndoEntryIsAGateAndABit holds an undo-log entry to what a pinned
// snapshot rolls back: a gate's emptiness bit, inputs included.
func TestUndoEntryIsAGateAndABit(t *testing.T) {
	if got := unsafe.Sizeof(enumUndo{}); got != 8 {
		t.Errorf("an undo entry takes %d bytes, want 8", got)
	}
}
