//go:build !race

package circuit_test

const raceEnabled = false
