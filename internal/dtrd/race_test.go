//go:build race

package dtrd

// raceEnabled is true under the race detector, where sync.Pool drops a
// quarter of what is Put into it and pooled scratch is reallocated at random.
const raceEnabled = true
