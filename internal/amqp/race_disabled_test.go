//go:build !race

package amqp_test

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = false
