//go:build !race

package qe

const raceEnabled = false
