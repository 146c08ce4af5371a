package optimizer

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"knncost/internal/engine"
	"knncost/internal/store"
)

const (
	// numShards spreads the cache over independently locked shards so
	// concurrent lookups on a hot plan mix rarely contend.
	numShards = 16
	// maxKeySelects bounds the select predicates a cache key can carry;
	// wider queries plan fresh every time (the key is a fixed-size struct
	// so a lookup never heap-allocates).
	maxKeySelects = 4
	// maxKeyRelations bounds the distinct relation names a key references:
	// every select plus both join sides.
	maxKeyRelations = maxKeySelects + 2
	// evictScan is how deep into the LRU tail eviction looks for the
	// cheapest-to-recompute victim (LRU-with-cost: among the ~evictScan
	// least recently used entries, drop the one whose re-plan is cheapest).
	evictScan = 4
	// DefaultCacheEntries is the cache bound when NewPlanner is given a
	// non-positive size.
	DefaultCacheEntries = 1024
)

// FNV-1a 64-bit constants; the fingerprint is hashed field by field so no
// intermediate buffer is allocated.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

func hashUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v))
		v >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return hashByte(h, 0xff) // length delimiter
}

// selectKey is one select predicate's contribution to the plan fingerprint.
// The query point is deliberately absent: coordinates parameterize the
// estimates, not the plan shape, so one cached decision serves every query
// point of the same shape (parameterized-plan caching). What makes a hit
// safe is the snapshot version — republishing a relation changes it, so a
// stale entry can never match a live lookup.
type selectKey struct {
	relation  string
	version   uint64
	k         int
	technique string // canonical registry name
}

// joinKey is the join predicate's contribution to the fingerprint.
type joinKey struct {
	outer, inner            string
	outerVersion, innerVers uint64
	k                       int
	technique               string
}

// planKey is the full structured cache key. Entries store a copy; lookups
// build one on the stack and compare field by field after the hash match,
// so hash collisions degrade to misses, never to wrong plans.
type planKey struct {
	hasJoin  bool
	nSelects int
	selBits  uint64 // filter selectivity bits
	selects  [maxKeySelects]selectKey
	join     joinKey
}

func (k *planKey) hash() uint64 {
	h := fnvOffset
	if k.hasJoin {
		h = hashByte(h, 1)
	} else {
		h = hashByte(h, 0)
	}
	h = hashUint(h, uint64(k.nSelects))
	h = hashUint(h, k.selBits)
	for i := 0; i < k.nSelects; i++ {
		s := &k.selects[i]
		h = hashString(h, s.relation)
		h = hashUint(h, s.version)
		h = hashUint(h, uint64(s.k))
		h = hashString(h, s.technique)
	}
	if k.hasJoin {
		h = hashString(h, k.join.outer)
		h = hashString(h, k.join.inner)
		h = hashUint(h, k.join.outerVersion)
		h = hashUint(h, k.join.innerVers)
		h = hashUint(h, uint64(k.join.k))
		h = hashString(h, k.join.technique)
	}
	return h
}

func (k *planKey) matches(o *planKey) bool {
	if k.hasJoin != o.hasJoin || k.nSelects != o.nSelects || k.selBits != o.selBits {
		return false
	}
	for i := 0; i < k.nSelects; i++ {
		if k.selects[i] != o.selects[i] {
			return false
		}
	}
	return !k.hasJoin || k.join == o.join
}

// references reports whether the key prices any snapshot of relation name.
func (k *planKey) references(name string) bool {
	for i := 0; i < k.nSelects; i++ {
		if k.selects[i].relation == name {
			return true
		}
	}
	return k.hasJoin && (k.join.outer == name || k.join.inner == name)
}

// cacheEntry is one cached decision, linked into its shard's LRU list.
type cacheEntry struct {
	hash uint64
	key  planKey
	dec  *Decision // Cached=true copy, shared by every hit
	cost float64   // chosen-plan cost: the eviction heuristic's input
}

// flight is one in-progress plan build; concurrent lookups of the same key
// wait on done instead of building again.
type flight struct {
	key  planKey
	done chan struct{}
	dec  *Decision
	err  error
}

type planShard struct {
	mu      sync.Mutex
	entries map[uint64]*list.Element // hash → element holding *cacheEntry
	lru     list.List                // front = most recently used
	flights map[uint64]*flight
}

// Planner plans conjunctive queries through a sharded, bounded plan cache.
// Lookups of a cached plan perform zero heap allocations; concurrent
// misses on one key are single-flighted into one build; and Invalidate —
// wired to the store's publish hooks — removes every entry referencing a
// republished relation. A Planner must be created with NewPlanner.
type Planner struct {
	maxPerShard int
	shards      [numShards]planShard

	// epochMu guards epochs: a per-relation counter bumped by Invalidate.
	// A build captures the epochs of every referenced relation before it
	// resolves snapshot versions and re-checks them at insert time, so an
	// invalidation that races an in-flight build always wins — the built
	// entry is returned to its caller but never published into the cache.
	epochMu sync.Mutex
	epochs  map[string]uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// NewPlanner creates a Planner whose cache holds at most maxEntries
// decisions (non-positive means DefaultCacheEntries).
func NewPlanner(maxEntries int) *Planner {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	perShard := (maxEntries + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	p := &Planner{maxPerShard: perShard, epochs: map[string]uint64{}}
	for i := range p.shards {
		p.shards[i].entries = make(map[uint64]*list.Element)
		p.shards[i].flights = make(map[uint64]*flight)
	}
	return p
}

// Hits counts lookups served without a plan build: cache hits plus
// single-flight joins.
func (p *Planner) Hits() int64 { return p.hits.Load() }

// Misses counts plan builds (cache misses and uncacheable queries).
func (p *Planner) Misses() int64 { return p.misses.Load() }

// Evictions counts entries dropped by the LRU-with-cost bound.
func (p *Planner) Evictions() int64 { return p.evictions.Load() }

// Invalidations counts entries removed because a relation they reference
// was republished or dropped.
func (p *Planner) Invalidations() int64 { return p.invalidations.Load() }

// Len returns the number of cached decisions.
func (p *Planner) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// relationNames writes the distinct relation names q references into out
// and returns how many. It is closure-free so the zero-allocation lookup
// path never risks a heap-escaping capture.
func relationNames(q *Query, out *[maxKeyRelations]string) int {
	n := 0
	for i := range q.Selects {
		n = addName(out, n, q.Selects[i].Relation)
	}
	if q.Join != nil {
		n = addName(out, n, q.Join.Outer)
		n = addName(out, n, q.Join.Inner)
	}
	return n
}

func addName(out *[maxKeyRelations]string, n int, name string) int {
	for i := 0; i < n; i++ {
		if out[i] == name {
			return n
		}
	}
	if n < len(out) {
		out[n] = name
		n++
	}
	return n
}

// buildKey fills key from q against v. cacheable is false (with no error)
// when the query is too wide for the fixed-size key; errors report unknown
// relations or techniques.
func buildKey(v *store.View, q *Query, key *planKey) (cacheable bool, err error) {
	if len(q.Selects) > maxKeySelects {
		return false, nil
	}
	key.nSelects = len(q.Selects)
	key.selBits = math.Float64bits(q.Selectivity)
	for i := range q.Selects {
		s := &q.Selects[i]
		snap := v.Relation(s.Relation)
		if snap == nil {
			return false, fmt.Errorf("optimizer: unknown relation %q", s.Relation)
		}
		tech, err := engine.LookupSelect(selectTechnique(s.Technique))
		if err != nil {
			return false, fmt.Errorf("optimizer: %w", err)
		}
		key.selects[i] = selectKey{relation: s.Relation, version: snap.Version, k: s.K, technique: tech.Name}
	}
	if j := q.Join; j != nil {
		key.hasJoin = true
		outer, inner := v.Relation(j.Outer), v.Relation(j.Inner)
		if outer == nil {
			return false, fmt.Errorf("optimizer: unknown relation %q", j.Outer)
		}
		if inner == nil {
			return false, fmt.Errorf("optimizer: unknown relation %q", j.Inner)
		}
		tech, err := engine.LookupJoin(joinTechnique(j.Technique))
		if err != nil {
			return false, fmt.Errorf("optimizer: %w", err)
		}
		key.join = joinKey{
			outer: j.Outer, inner: j.Inner,
			outerVersion: outer.Version, innerVers: inner.Version,
			k: j.K, technique: tech.Name,
		}
	}
	return true, nil
}

// captureEpochs reads the current epoch of every relation q references.
// It runs before buildKey resolves snapshot versions, so an Invalidate
// that lands anywhere between version resolution and cache insert is
// always detected by the insert-time re-check.
func (p *Planner) captureEpochs(names *[maxKeyRelations]string, n int, out *[maxKeyRelations]uint64) {
	p.epochMu.Lock()
	for i := 0; i < n; i++ {
		out[i] = p.epochs[names[i]]
	}
	p.epochMu.Unlock()
}

func (p *Planner) epochsUnchanged(names *[maxKeyRelations]string, n int, snap *[maxKeyRelations]uint64) bool {
	p.epochMu.Lock()
	defer p.epochMu.Unlock()
	for i := 0; i < n; i++ {
		if p.epochs[names[i]] != snap[i] {
			return false
		}
	}
	return true
}

// Plan resolves q against v, serving a cached decision when the
// fingerprint — every referenced relation's snapshot version, the query
// shape, the k values and the canonical technique set — matches a prior
// plan. The query's coordinates are not part of the fingerprint: the plan
// is priced at the first binding and reused for every same-shaped query
// (see selectKey). The returned Decision is shared and must not be
// mutated. A cached lookup performs zero heap allocations.
func (p *Planner) Plan(v *store.View, q Query) (*Decision, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	var names [maxKeyRelations]string
	nNames := relationNames(&q, &names)
	var epochs [maxKeyRelations]uint64
	p.captureEpochs(&names, nNames, &epochs)

	var key planKey
	cacheable, err := buildKey(v, &q, &key)
	if err != nil {
		return nil, err
	}
	if !cacheable {
		p.misses.Add(1)
		return PlanOnce(v, q)
	}
	h := key.hash()
	sh := &p.shards[h%numShards]

	sh.mu.Lock()
	if el, ok := sh.entries[h]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.key.matches(&key) {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			p.hits.Add(1)
			return ent.dec, nil
		}
	}
	if f, ok := sh.flights[h]; ok && f.key.matches(&key) {
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		p.hits.Add(1)
		return f.dec, nil
	}
	f := &flight{key: key, done: make(chan struct{})}
	sh.flights[h] = f
	sh.mu.Unlock()

	dec, err := p.buildDecision(v, &q, h)
	p.misses.Add(1)

	sh.mu.Lock()
	delete(sh.flights, h)
	if err == nil && p.epochsUnchanged(&names, nNames, &epochs) {
		sh.insertLocked(p, h, &key, dec)
	}
	sh.mu.Unlock()
	f.dec, f.err = dec, err
	close(f.done)
	return dec, err
}

// planBuildHook, when non-nil, runs at the start of every plan build — a
// test seam that holds builds in flight so the single-flight and
// invalidation races can be exercised deterministically.
var planBuildHook func()

func (p *Planner) buildDecision(v *store.View, q *Query, fingerprint uint64) (*Decision, error) {
	if planBuildHook != nil {
		planBuildHook()
	}
	plans, err := enumerate(v, q)
	if err != nil {
		return nil, err
	}
	dec := decide(plans)
	dec.Fingerprint = fingerprint
	return dec, nil
}

// insertLocked publishes a freshly built decision into the shard. The
// cached copy is annotated Cached=true (sharing the plan slices — they are
// immutable); the builder's own caller keeps the Cached=false original.
// Caller holds sh.mu.
func (sh *planShard) insertLocked(p *Planner, h uint64, key *planKey, dec *Decision) {
	if el, ok := sh.entries[h]; ok {
		// A different key hashed here (or a re-plan raced in): replace.
		sh.lru.Remove(el)
		delete(sh.entries, h)
	}
	if sh.lru.Len() >= p.maxPerShard {
		victim := sh.lru.Back()
		cand := victim
		for i := 0; i < evictScan && cand != nil; i++ {
			if cand.Value.(*cacheEntry).cost < victim.Value.(*cacheEntry).cost {
				victim = cand
			}
			cand = cand.Prev()
		}
		ve := victim.Value.(*cacheEntry)
		sh.lru.Remove(victim)
		delete(sh.entries, ve.hash)
		p.evictions.Add(1)
	}
	cached := *dec
	cached.Cached = true
	sh.entries[h] = sh.lru.PushFront(&cacheEntry{
		hash: h, key: *key, dec: &cached, cost: dec.Chosen.EstimatedCost,
	})
}

// Invalidate removes every cached decision referencing relation name and
// bumps the relation's epoch so in-flight builds that resolved the old
// snapshot cannot be published afterwards. It is designed to be registered
// as a store publish hook: it runs under the store's lock and never calls
// back into the store.
func (p *Planner) Invalidate(name string) {
	p.epochMu.Lock()
	p.epochs[name]++
	p.epochMu.Unlock()
	removed := int64(0)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for h, el := range sh.entries {
			ent := el.Value.(*cacheEntry)
			if ent.key.references(name) {
				sh.lru.Remove(el)
				delete(sh.entries, h)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		p.invalidations.Add(removed)
	}
}
