//go:build race

package main

// raceEnabled lets TestAllHonoursFormat skip itself under the race
// detector, where its single-goroutine figure experiments are slow and
// have nothing to race with.
const raceEnabled = true
