//go:build !race

package agg

const raceEnabled = false
