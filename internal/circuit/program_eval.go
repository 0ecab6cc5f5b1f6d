// Evaluation over the frozen Program form: one sweep over the CSR arenas with
// index arithmetic — no per-gate slice headers to chase and no big.Int
// arithmetic for constants that fit int64.
//
// The circuits produced by internal/compile are wide and shallow: Theorem 6
// bounds their depth by a constant depending only on the query, while the
// number of gates grows linearly with the database.  That shape is ideal for
// level-parallel evaluation: every child of a rank-d gate has rank < d, so
// the gates of one level of the Program's baked schedule are independent and
// evaluate concurrently.  Permanent gates, with their O(2^rows·rows·cols)
// column dynamic program, parallelise across the pool and dominate evaluation
// time where they occur: only on shape levels with two or more sibling slots,
// since the compiler emits a one-slot level as an addition.
package circuit

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/semiring"
)

// EvaluateProgram computes the value of the output gate in the semiring s
// under the valuation v, visiting every gate once in id (topological) order.
func EvaluateProgram[T any](p *Program, s semiring.Semiring[T], v Valuation[T]) T {
	if p.output < 0 {
		panic("circuit: no output gate set")
	}
	vals := EvaluateAllProgram(p, s, v)
	return vals[p.output]
}

// EvaluateAllProgram computes the value of every gate, returning the slice
// indexed by gate id.
func EvaluateAllProgram[T any](p *Program, s semiring.Semiring[T], v Valuation[T]) []T {
	vals := make([]T, p.numGates)
	var sc permScratch[T]
	for id := 0; id < p.numGates; id++ {
		evaluateProgramGate(p, s, v, id, vals, &sc)
	}
	return vals
}

// permScratch holds the reusable buffers of the permanent-gate column
// dynamic program, so that evaluating many permanent gates in one pass
// performs no per-gate heap allocations.
type permScratch[T any] struct {
	col   []T // current column, indexed by row
	state []T // DP state over row subsets
	next  []T
}

func (sc *permScratch[T]) ensure(rows, size int) {
	if cap(sc.col) < rows {
		sc.col = make([]T, rows)
	}
	if cap(sc.state) < size {
		sc.state = make([]T, size)
		sc.next = make([]T, size)
	}
}

// evaluateProgramGate computes the value of a single gate into vals[id].
// All children must already be present in vals; distinct gate ids may be
// evaluated concurrently as long as that invariant holds and each goroutine
// owns its scratch.
func evaluateProgramGate[T any](p *Program, s semiring.Semiring[T], v Valuation[T], id int, vals []T, sc *permScratch[T]) {
	switch Kind(p.kind[id]) {
	case KindInput:
		if x, ok := v(p.input(id)); ok {
			vals[id] = x
		} else {
			vals[id] = s.Zero()
		}
	case KindConst:
		ci := p.arg[id]
		if b := p.constBig[ci]; b != nil {
			vals[id] = semiring.ScalarMulBig(s, b, s.One())
		} else {
			vals[id] = semiring.ScalarMul(s, p.constSmall[ci], s.One())
		}
	case KindAdd:
		acc := s.Zero()
		for _, ch := range p.children[p.childStart[id]:p.childStart[id+1]] {
			acc = s.Add(acc, vals[ch])
		}
		vals[id] = acc
	case KindMul:
		acc := s.One()
		for _, ch := range p.children[p.childStart[id]:p.childStart[id+1]] {
			acc = s.Mul(acc, vals[ch])
		}
		vals[id] = acc
	case KindPerm:
		vals[id] = evaluateProgramPerm(p, s, id, p.children[p.childStart[id]:p.childStart[id+1]], vals, sc)
	}
}

// evaluateProgramPerm is the one from-scratch evaluator of permanent gates:
// the column dynamic program of perm.PermColumns, run directly over the
// column-major entry arena with the caller's scratch buffers, so no column
// matrix is materialised and nothing is allocated.  The operand wired at
// entry i is vals[kids[i]].  The sweeps pass the gate's slice of the children
// arena and the gate-indexed value array, reading operands in place; a view
// that cannot index values by gate id (the snapshot overlay) gathers its
// operands in entry order and passes the identity as kids.
func evaluateProgramPerm[T any](p *Program, s semiring.Semiring[T], id int, kids []int32, vals []T, sc *permScratch[T]) T {
	pm := p.perms[p.arg[id]]
	rows, nCols := int(pm.rows), int(pm.cols)
	if rows == 0 {
		return s.One()
	}
	size := 1 << uint(rows)
	sc.ensure(rows, size)
	col := sc.col[:rows]
	state := sc.state[:size]
	next := sc.next[:size]
	for i := range state {
		state[i] = s.Zero()
	}
	state[0] = s.One()
	idx := 0
	for c := 0; c < nCols; c++ {
		for r := range col {
			col[r] = s.Zero()
		}
		// Entries are column-major, so this column's wired cells are a
		// contiguous run of the arena.
		for idx < len(kids) && int(p.permCols[pm.entOff+int32(idx)]) == c {
			col[p.permRows[pm.entOff+int32(idx)]] = vals[kids[idx]]
			idx++
		}
		copy(next, state)
		for sub := 0; sub < size; sub++ {
			if semiring.IsZero(s, state[sub]) {
				continue
			}
			for r := 0; r < rows; r++ {
				bit := 1 << uint(r)
				if sub&bit != 0 {
					continue
				}
				next[sub|bit] = s.Add(next[sub|bit], s.Mul(state[sub], col[r]))
			}
		}
		state, next = next, state
	}
	return state[size-1]
}

// ParallelEvaluateAllProgramCtx computes the value of every gate like
// EvaluateAllProgram, spreading each level of the program's baked schedule
// across workers goroutines (≤ 0 selects GOMAXPROCS).  The valuation v and
// the semiring s are called from multiple goroutines concurrently; both must
// be safe for concurrent use.  It honours cancellation: when ctx is cancelled
// the evaluation stops in bounded time (workers re-check the context every cancelCheckStride of gates and
// wires and at every level barrier) and the call returns ctx.Err() with a nil
// slice.
func ParallelEvaluateAllProgramCtx[T any](ctx context.Context, p *Program, s semiring.Semiring[T], v Valuation[T], workers int) ([]T, error) {
	if ctx == nil || ctx.Done() == nil {
		// No cancellation signal to watch; take the unchecked fast path.
		return parallelEvaluateAllProgram(nil, p, s, v, workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vals, err := parallelEvaluateAllProgram(ctx.Done(), p, s, v, workers)
	if err != nil {
		// Report the context's own cause (Canceled vs DeadlineExceeded).
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return vals, nil
}

// minGatesPerWorker is the smallest slice of a level worth handing to a
// separate goroutine; levels narrower than 2·minGatesPerWorker run on the
// calling goroutine.  Cheap gates (add/mul over a few children) cost tens of
// nanoseconds, so very fine-grained fan-out would be pure overhead.
const minGatesPerWorker = 32

// cancelCheckStride is the work between cancellation checks, counted as one
// per gate plus one per wire it reads; it bounds the latency of a cancelled
// evaluation to the cost of a stride (plus the gate in flight) per worker,
// however that work is spread over gates — a level of a few wide additions
// costs as much as one of many narrow gates.
const cancelCheckStride = 256

// cancelled does a non-blocking poll of a done channel (nil never fires).
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// cancelPoll polls a done channel once per cancelCheckStride of work; the
// zero budget polls before the first gate.  A nil channel never fires.
type cancelPoll struct {
	done   <-chan struct{}
	budget int
}

// stop charges gate id to the budget and reports whether the evaluation was
// cancelled, polling only when the budget runs out.
func (c *cancelPoll) stop(p *Program, id int32) bool {
	if c.done == nil {
		return false
	}
	if c.budget -= int(p.childStart[id+1]-p.childStart[id]) + 1; c.budget > 0 {
		return false
	}
	c.budget = cancelCheckStride
	return cancelled(c.done)
}

// parallelEvaluateAllProgram is the shared engine behind the parallel
// evaluators; a nil done channel disables the cancellation checks entirely.
func parallelEvaluateAllProgram[T any](done <-chan struct{}, p *Program, s semiring.Semiring[T], v Valuation[T], workers int) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 && done == nil {
		return EvaluateAllProgram(p, s, v), nil
	}
	vals := make([]T, p.numGates)
	poll := cancelPoll{done: done} // for gates run on the calling goroutine
	var wg sync.WaitGroup
	var sc permScratch[T] // scratch for levels run on the calling goroutine
	for d := 0; d <= p.maxRank; d++ {
		if done != nil && cancelled(done) {
			return nil, context.Canceled
		}
		level := p.LevelGates(d)
		n := len(level)
		chunks := workers
		if max := n / minGatesPerWorker; chunks > max {
			chunks = max
		}
		if chunks <= 1 {
			for _, id := range level {
				if poll.stop(p, id) {
					return nil, context.Canceled
				}
				evaluateProgramGate(p, s, v, int(id), vals, &sc)
			}
			continue
		}
		// Contiguous chunks: gates within a level touch disjoint vals slots,
		// so no synchronisation beyond the per-level barrier is needed.
		chunkSize := (n + chunks - 1) / chunks
		wg.Add(chunks)
		for w := 0; w < chunks; w++ {
			lo := w * chunkSize
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			go func(ids []int32) {
				defer wg.Done()
				var sc permScratch[T] // one scratch per worker goroutine
				poll := cancelPoll{done: done}
				for _, id := range ids {
					if poll.stop(p, id) {
						return // abandon the chunk; the barrier notices below
					}
					evaluateProgramGate(p, s, v, int(id), vals, &sc)
				}
			}(level[lo:hi])
		}
		wg.Wait()
		if done != nil && cancelled(done) {
			return nil, context.Canceled
		}
	}
	return vals, nil
}
