package circuit

import (
	"context"

	"repro/internal/semiring"
)

// LastWave reports the gates that waited in d's last write wave and the
// child slots they were enlisted at.
func (d *Dynamic[T]) LastWave() (gates, wires int) {
	w := &d.o.wave
	for _, slots := range w.lists[:w.last] {
		wires += len(slots)
	}
	return w.last, wires
}

// ParallelEvaluateOn is ParallelEvaluateAllProgramCtx spreading a level over
// at most workers goroutines, so that a test can force more chunks than the
// host has cores.
func ParallelEvaluateOn[T any](ctx context.Context, p *Program, s semiring.Semiring[T], v Valuation[T], workers int) ([]T, error) {
	return parallelEvaluateAllProgram(ctx, p, s, v, workers)
}
