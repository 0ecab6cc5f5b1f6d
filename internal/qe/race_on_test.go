//go:build race

package qe

// raceEnabled lets absolute allocation guards skip under the race detector,
// whose instrumentation changes what escapes.
const raceEnabled = true
