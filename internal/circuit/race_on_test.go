//go:build race

package circuit_test

// raceEnabled lets absolute allocation guards skip under the race detector,
// whose instrumentation changes what escapes.
const raceEnabled = true
