//go:build race

package resilience

// raceEnabled is true under the race detector, whose instrumented runtime
// makes allocation counts vary from run to run.
const raceEnabled = true
