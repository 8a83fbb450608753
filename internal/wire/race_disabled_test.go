//go:build !race

package wire

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
