//go:build !race

package flow

// raceEnabled reports a build with the race detector, which slows the
// single-goroutine solver about twentyfold.
const raceEnabled = false
