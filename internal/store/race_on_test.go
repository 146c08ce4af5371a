//go:build race

package store

// raceEnabled reports whether the race detector is on, under which the
// runtime allocates beside what the code under test does.
const raceEnabled = true
