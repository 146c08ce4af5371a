//go:build race

package middleware

// raceEnabled reports whether the race detector is on: what it allocates is
// counted with the code's own allocations, so allocation ceilings mean
// nothing under it.
const raceEnabled = true
