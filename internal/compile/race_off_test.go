//go:build !race

package compile_test

const raceEnabled = false
