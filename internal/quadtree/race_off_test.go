//go:build !race

package quadtree

const raceEnabled = false
