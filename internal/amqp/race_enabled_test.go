//go:build race

package amqp_test

// raceEnabled reports that the race detector is instrumenting this build.
// sync.Pool deliberately drops a fraction of Puts under the race detector,
// so allocation budgets over pooled hot paths are not asserted.
const raceEnabled = true
