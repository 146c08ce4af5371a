//go:build race

package quadtree

// raceEnabled reports whether the race detector is on: what it allocates is
// counted with what the code under test allocates.
const raceEnabled = true
