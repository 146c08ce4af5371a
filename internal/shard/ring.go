// Package shard scales the estimation tier horizontally: a consistent-hash
// Ring maps relation names onto shards, and a stateless Router fans requests
// out to shard daemons, merges the answers, and bounds tail latency with
// replica fan-out and hedged requests.
//
// The decomposition mirrors the partition-then-merge shape of MapReduce
// k-NN-join processing (Lu et al., PAPERS.md): per-relation catalogs are
// independent, so k-NN-Select estimation shards cleanly by relation name,
// and the per-pair Catalog-Merge of a cross-shard join is built where the
// outer relation lives after the inner relation's points are handed off.
// With a shared content-addressed catalog cache (internal/store), that
// handoff is a warm restore — the receiving shard loads catalogs keyed by
// the point-data fingerprint instead of rebuilding them — which is what
// makes live rebalancing cheap.
//
// Everything the router serves is bit-exact equal to a single-node answer:
// shards build catalogs from the same points with the same options, every
// build is deterministic, and scatter-gathered batches preserve query order.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-shard virtual-node count of a Ring built
// with vnodes <= 0. 160 points per shard keeps the per-shard key share
// within a few percent of 1/N and an add/remove remap within ~1/N.
const DefaultVirtualNodes = 160

// Ring is an immutable consistent-hash ring over shard IDs. Placement is a
// pure function of the shard IDs and the virtual-node count — two rings
// built from the same inputs (in any order, in any process) route
// identically, so routing is stable across router restarts.
type Ring struct {
	shards []string // sorted, unique
	vnodes int
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position on the ring owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// NewRing builds a ring over the given shard IDs with vnodes virtual nodes
// per shard (<= 0 means DefaultVirtualNodes). IDs must be non-empty and
// unique; order does not matter.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("shard: empty shard ID")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("shard: duplicate shard ID %q", id)
		}
	}
	r := &Ring{
		shards: sorted,
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for si, id := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s#%d", id, v)),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between virtual nodes are broken by shard order so
		// placement stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// hash64 is FNV-1a — fast, dependency-free, and, unlike Go's map hash,
// identical in every process, which consistent routing requires — finished
// with a SplitMix64-style avalanche: raw FNV values of near-identical
// strings ("shard-a#0", "shard-a#1", ...) are correlated enough to leave
// the ring badly unbalanced, and the finalizer decorrelates them.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Owner returns the shard that owns the relation: the first virtual node at
// or clockwise after the relation's hash.
func (r *Ring) Owner(relation string) string {
	return r.shards[r.points[r.start(relation)].shard]
}

// Owners returns the first n distinct shards clockwise from the relation's
// hash — the relation's primary (index 0) followed by its replicas. n is
// clamped to the number of shards.
func (r *Ring) Owners(relation string, n int) []string {
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.start(relation); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// start returns the index of the first virtual node at or clockwise after
// the relation's hash.
func (r *Ring) start(relation string) int {
	h := hash64(relation)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return i
}
