package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"knncost/internal/engine"
	"knncost/internal/store"
)

const (
	// maxKeySelects bounds the select predicates a cache key can carry;
	// wider queries plan fresh every time (the key is a fixed-size struct
	// so a lookup never heap-allocates).
	maxKeySelects = 4
	// DefaultCacheEntries is the cache bound when NewPlanner is given a
	// non-positive size.
	DefaultCacheEntries = 1024
)

// selectKey is one select predicate's part of the cache key. The query
// point is deliberately absent: coordinates parameterize the estimates,
// not the plan shape, so one cached decision serves every query point of
// the same shape (parameterized-plan caching). What makes a hit safe is
// the snapshot version — republishing a relation changes it, so a stale
// entry can never match a live lookup.
type selectKey struct {
	relation  string
	version   uint64
	k         int
	technique string // canonical registry name
}

// joinKey is the join predicate's part of the cache key.
type joinKey struct {
	outer, inner            string
	outerVersion, innerVers uint64
	k                       int
	technique               string
}

// planKey is the full cache key. It is comparable, so the cache map hashes
// and compares it; unused select slots stay zero.
type planKey struct {
	hasJoin  bool
	nSelects int
	selBits  uint64 // filter selectivity bits
	selects  [maxKeySelects]selectKey
	join     joinKey
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

// flight is one in-progress plan build; concurrent lookups of the same key
// wait on done instead of building again.
type flight struct {
	done chan struct{}
	dec  *Decision
	err  error
}

// Planner plans conjunctive queries through a bounded plan cache: one map
// under one lock. Lookups of a cached plan take only the read lock and
// perform zero heap allocations; concurrent misses on one key are
// single-flighted into one build; and Invalidate — wired to the store's
// publish hooks — removes every entry referencing a republished relation.
// A Planner must be created with NewPlanner.
type Planner struct {
	maxEntries int
	mu         sync.RWMutex
	entries    map[planKey]*Decision // Cached=true copies, shared by every hit
	flights    map[planKey]*flight
	// epoch counts Invalidate calls; it is bumped under mu. A build reads
	// it before it resolves snapshot versions and inserts only if it has
	// not moved, so an invalidation that races an in-flight build always
	// wins — the built decision is returned to its caller but never
	// published into the cache.
	epoch atomic.Uint64

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
	return &Planner{
		maxEntries: maxEntries,
		entries:    make(map[planKey]*Decision),
		flights:    make(map[planKey]*flight),
	}
}

// Hits counts lookups served without a plan build: cache hits plus
// single-flight joins.
func (p *Planner) Hits() int64 { return p.hits.Load() }

// Misses counts plan builds (cache misses and uncacheable queries).
func (p *Planner) Misses() int64 { return p.misses.Load() }

// Evictions counts entries dropped to keep the cache within its bound.
func (p *Planner) Evictions() int64 { return p.evictions.Load() }

// Invalidations counts entries removed because a relation they reference
// was republished or dropped.
func (p *Planner) Invalidations() int64 { return p.invalidations.Load() }

// Len returns the number of cached decisions.
func (p *Planner) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.entries)
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
		tech, err := engine.LookupSelect(cmp.Or(s.Technique, engine.DefaultSelect))
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
		tech, err := engine.LookupJoin(cmp.Or(j.Technique, engine.DefaultJoin))
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

// Plan resolves q against v, serving a cached decision when the key —
// every referenced relation's snapshot version, the query shape, the k
// values and the canonical technique set, but not the coordinates (see
// selectKey) — matches a prior plan. The returned Decision is shared and
// must not be mutated. A cached lookup performs zero heap allocations.
func (p *Planner) Plan(v *store.View, q Query) (*Decision, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	epoch := p.epoch.Load() // before buildKey resolves snapshot versions
	var key planKey
	cacheable, err := buildKey(v, &q, &key)
	if err != nil {
		return nil, err
	}
	if !cacheable {
		p.misses.Add(1)
		return PlanOnce(v, q)
	}
	p.mu.RLock()
	dec, ok := p.entries[key]
	p.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		return dec, nil
	}

	p.mu.Lock()
	if dec, ok := p.entries[key]; ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return dec, nil
	}
	if f, ok := p.flights[key]; ok {
		p.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		p.hits.Add(1)
		return f.dec, nil
	}
	f := &flight{done: make(chan struct{})}
	p.flights[key] = f
	p.mu.Unlock()

	if planBuildHook != nil {
		planBuildHook()
	}
	dec, err = PlanOnce(v, q)
	p.misses.Add(1)

	p.mu.Lock()
	delete(p.flights, key)
	if err == nil && p.epoch.Load() == epoch {
		p.insertLocked(&key, dec)
	}
	p.mu.Unlock()
	f.dec, f.err = dec, err
	close(f.done)
	return dec, err
}

// planBuildHook, when non-nil, runs at the start of every plan build — a
// test seam that holds builds in flight so the single-flight and
// invalidation races can be exercised deterministically.
var planBuildHook func()

// insertLocked publishes a Cached=true copy of a freshly built decision
// (sharing its immutable plan slices); the builder's own caller keeps the
// original. A full cache first drops the first entry a range over the map
// yields, which Go randomises: no workload's traffic reaches the bound, so
// a smarter victim choice would buy nothing measurable. Caller holds p.mu.
func (p *Planner) insertLocked(key *planKey, dec *Decision) {
	if len(p.entries) >= p.maxEntries {
		for victim := range p.entries {
			delete(p.entries, victim)
			p.evictions.Add(1)
			break
		}
	}
	cached := *dec
	cached.Cached = true
	p.entries[*key] = &cached
}

// Invalidate removes every cached decision referencing relation name and
// bumps the epoch so in-flight builds that resolved the old snapshot
// cannot be published afterwards. It is designed to be registered as a
// store publish hook: it runs under the store's lock and never calls back
// into the store.
func (p *Planner) Invalidate(name string) {
	p.mu.Lock()
	p.epoch.Add(1)
	removed := int64(0)
	for key := range p.entries {
		if key.references(name) {
			delete(p.entries, key)
			removed++
		}
	}
	p.mu.Unlock()
	if removed > 0 {
		p.invalidations.Add(removed)
	}
}
