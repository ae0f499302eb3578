//go:build !race

package dtrd

const raceEnabled = false
