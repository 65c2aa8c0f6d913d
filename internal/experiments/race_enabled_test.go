//go:build race

package experiments

// raceEnabled lets the full-size figure golden skip itself under the
// race detector, where its single-goroutine drivers take 40 s and have
// nothing to race with; `make ci` runs it once without the detector.
const raceEnabled = true
