//go:build race

package graph

// raceEnabled lets absolute allocation guards skip under the race detector,
// whose instrumentation changes what escapes.
const raceEnabled = true
