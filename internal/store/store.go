// Package store owns the full lifecycle of the relation catalogs the
// estimation service serves: registration, background catalog construction,
// atomic hot swap of rebuilt versions, dropping, and a warm-restart disk
// cache.
//
// The paper's deployment scenario is a long-running optimizer answering
// "thousands of queries per second"; at that rate the relation schema cannot
// be frozen at boot. The store makes relations dynamic without ever blocking
// the estimate hot path:
//
//   - Every relation is published as an immutable, versioned Snapshot
//     (data index, Count-Index, staircase, density, Virtual-Grid). Snapshots
//     never change after publication.
//   - All published snapshots and the listing metadata live in a single
//     immutable View swapped in with one atomic pointer store (RCU, the same
//     model an inference server uses for hot model swaps). An in-flight
//     estimate that loaded a View keeps a fully consistent schema for its
//     whole lifetime; a rebuild, drop or registration never mutates anything
//     a reader can see. View resolution is one atomic load plus a map lookup
//     and performs zero heap allocations (a test pins this).
//   - Catalog-Merge needs a catalog per ordered pair (the paper's O(n²)
//     term, §4.3): the View resolves one when a join or plan first asks.
//   - Catalog construction runs on a bounded background worker pool. Builds
//     for the same relation are deduplicated: re-registering a queued
//     relation supersedes the queued build in place, and re-registering one
//     that is mid-build cancels the running build's context and schedules a
//     fresh one. Every build carries a status (queued → building →
//     ready | failed) observable per relation and in listings.
//   - With a cache directory configured, built catalogs are persisted in the
//     internal/core binary formats keyed by a fingerprint of the point data
//     and build options: one bundle file per fingerprint (build parameters,
//     points, per-relation catalogs) and one side-file of the pair merges
//     asked for. A restarted store re-registers the cached relations and
//     loads their catalogs instead of rebuilding — warm restarts cost
//     index-rebuild milliseconds, not catalog-build seconds. The files of a
//     generation no registry in the directory names any more are swept, so
//     the directory holds live data only, however many compactions ran.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
	"knncost/internal/wal"
)

// State is the build status of a relation.
type State int32

const (
	// StateQueued means a build is waiting for a worker. A previously
	// published snapshot (if any) keeps serving meanwhile.
	StateQueued State = iota + 1
	// StateBuilding means a worker is constructing the catalogs.
	StateBuilding
	// StateReady means the latest registered version is published.
	StateReady
	// StateFailed means the latest build errored; Error carries the cause.
	// A previously published snapshot (if any) keeps serving.
	StateFailed
)

// String implements fmt.Stringer; the values are the wire strings of the
// service's status endpoints.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Options configure a Store.
type Options struct {
	// MaxK is the largest catalog-maintained k. Zero means core.DefaultMaxK.
	MaxK int
	// SampleSize is the Catalog-Merge sample size. Zero means 200.
	SampleSize int
	// GridSize is the Virtual-Grid dimension. Zero means 10.
	GridSize int
	// IndexCapacity is the quadtree leaf capacity used when a relation is
	// registered from raw points. Zero means 256.
	IndexCapacity int
	// Bounds is the index bounds for point-registered relations. The zero
	// rectangle means "compute from the points".
	Bounds geom.Rect
	// Workers is the build-pool size. Zero means GOMAXPROCS.
	Workers int
	// QueueLen bounds pending build signals; registrations beyond it fail
	// with ErrQueueFull. Zero means 256.
	QueueLen int
	// CacheDir enables the warm-restart disk cache. Empty disables it.
	CacheDir string
	// RegistryScope names this store's slice of a shared cache directory.
	// Catalog artifacts are content-addressed and safely shared between
	// stores (that sharing is what makes a shard handoff a warm restore),
	// but the registry of live relations is per store: scope "a" restores
	// only what scope "a" registered. Empty means the unscoped
	// registry.json.
	RegistryScope string
	// CompactThreshold is the pending-delta point count at which a
	// relation's mutations are compacted into fresh artifacts. Zero means
	// 512.
	CompactThreshold int
	// CompactInterval bounds delta staleness: a background pass compacts
	// any relation with pending mutations this often. Zero means 2s;
	// negative disables the timer (compaction then happens only via the
	// threshold, Flush, or WaitSettled — useful in deterministic tests).
	CompactInterval time.Duration
	// WALSegmentBytes is the write-ahead-log segment rotation threshold.
	// Zero means 4 MiB. The WAL is enabled whenever CacheDir is set.
	WALSegmentBytes int
	// WALSyncInterval selects the mutation fsync policy: zero means group
	// commit (every mutation is fsynced before it is acknowledged,
	// batching concurrent mutators into one fsync); a positive value
	// trades a bounded loss window for throughput by fsyncing on a timer
	// instead.
	WALSyncInterval time.Duration
	// CatalogBudgetBytes is the space-budget auto-tuner's global target for
	// the summed artifact bytes of every published relation. While the
	// total exceeds it, the tuner rebuilds the coldest relations (by
	// estimate traffic) one resolution step coarser; with headroom it grows
	// tuned relations back toward their declared resolution. Zero (the
	// default) disables the tuner entirely.
	CatalogBudgetBytes int64
	// TunerInterval is the cadence of the background tuner pass. Zero
	// means 5s; negative disables the background loop (passes then happen
	// only via TunerTick — useful in deterministic tests).
	TunerInterval time.Duration
	// TunerQErrorTolerance bounds the estimate degradation a tuner shrink
	// may cause: after a coarsened rebuild publishes, the tuner probes its
	// q-error against ground-truth distance browsing and reverts the step
	// (and refuses to repeat it) when the worst probe exceeds this factor.
	// Zero means 2.0.
	TunerQErrorTolerance float64
	// Logger receives cache warnings and build logs. Nil means the standard
	// logger.
	Logger *log.Logger
	// crashHook, when set, is the WAL's OpHook and fires before the disk
	// cache renames a bundle, side-file or registry into place or unlinks a
	// swept file, ("built") between a build and its publish and ("merge")
	// before a pair is resolved: the crash tests snapshot the directory then.
	crashHook func(op string)
}

func (o Options) withDefaults() Options {
	if o.MaxK == 0 {
		o.MaxK = core.DefaultMaxK
	}
	if o.SampleSize == 0 {
		o.SampleSize = 200
	}
	if o.GridSize == 0 {
		o.GridSize = 10
	}
	if o.IndexCapacity == 0 {
		o.IndexCapacity = 256
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 256
	}
	if o.CompactThreshold <= 0 {
		o.CompactThreshold = 512
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 2 * time.Second
	}
	if o.TunerInterval == 0 {
		o.TunerInterval = 5 * time.Second
	}
	if o.TunerQErrorTolerance == 0 {
		o.TunerQErrorTolerance = 2.0
	}
	return o
}

// resolveResolution maps a requested per-relation resolution to its
// canonical effective form: axes left zero inherit the store-wide options
// (so Register without a resolution behaves exactly as before), everything
// else canonicalizes per core.Resolution.
func (o Options) resolveResolution(r core.Resolution) core.Resolution {
	if r.MaxK == 0 {
		r.MaxK = o.MaxK
	}
	if r.GridSize == 0 {
		r.GridSize = o.GridSize
	}
	return r.Canon()
}

func (o Options) logger() *log.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return log.Default()
}

// Snapshot is one immutable published version of a relation: the data index
// and every per-relation estimator, built together from the same points.
// All fields are read-only after publication; sharing a Snapshot across any
// number of goroutines is safe.
type Snapshot struct {
	// Name is the relation name.
	Name string
	// Version counts publications of this relation, starting at 1.
	Version uint64
	// Fingerprint identifies the point data + build options.
	Fingerprint string
	// Tree is the data index (points included): every Block.Points is a
	// window of the one array flat, the relation's only resident copy.
	Tree *index.Tree
	// Count is the Count-Index derived from Tree.
	Count *index.Tree
	// Staircase is the paper's k-NN-Select estimator (§3).
	Staircase *core.Staircase
	// Density is the density-based baseline estimator.
	Density *core.DensityBased
	// VGrid is the Virtual-Grid join estimator built over Count (§4.3).
	VGrid *core.VirtualGrid
	// Aknn is the bounds-only AkNN join summary built over Count
	// (internal/aknn) — the inner-relation artifact of the aknn-bounds
	// technique.
	Aknn *aknn.Summary
	// Engine is the relation's engine.Relation, seeded at publication with
	// the artifacts above so that technique resolution by name serves the
	// exact same estimator objects. Techniques the store does not precompute
	// (e.g. staircase-c) build lazily inside Engine, once per snapshot.
	// Pair artifacts are the exception: the View owns them
	// (View.JoinEstimator), so that no snapshot holds a reference to another
	// relation's generation.
	Engine *engine.Relation
	// Resolution is the canonical artifact resolution this snapshot was
	// built at — the declared resolution, or a coarser rung when the
	// space-budget tuner shrank the relation.
	Resolution core.Resolution
	// StaircaseBytes and VGridBytes are the serialized catalog sizes,
	// computed once at publication. AknnBytes is the aknn summary's;
	// ArtifactBytes is the total the tuner accounts against the budget
	// (staircase + virtual grid + aknn summary).
	StaircaseBytes int
	VGridBytes     int
	AknnBytes      int
	ArtifactBytes  int

	// hits is the estimate-traffic counter shared with the relation's
	// store entry across republishes; Touch increments it.
	hits *atomic.Int64
	// merges are this fingerprint's side-file records as read with the bundle
	// (nil when built fresh), for mergeFor. A restart keeps only those of
	// peers its registry names (recoverLocked); a registration in a running
	// store keeps all, for the peers a shard handoff registers next.
	merges mergeRecs
	seq    uint64 // publication order: a pair's merge goes to the younger one's side-file
	// flat is Tree's point array, in depth-first leaf order; order[i] is where
	// the i-th registered point sits in it (quadtree.Tree.Flat).
	flat  []geom.Point
	order []uint32
}

// Points returns the relation's points in registration order — the exact
// input that produced this snapshot, which the points endpoint serves so a
// peer shard can re-register them and arrive at a bit-identical build (same
// fingerprint, same tree, same catalogs). A snapshot keeps them in tree order
// only, so each call gathers a fresh slice of 16 bytes a point: the result is
// the caller's, and a caller that wants a few points uses PointAt.
func (sn *Snapshot) Points() []geom.Point {
	return sn.appendPoints(make([]geom.Point, 0, len(sn.order)))
}

func (sn *Snapshot) appendPoints(dst []geom.Point) []geom.Point {
	for _, at := range sn.order {
		dst = append(dst, sn.flat[at])
	}
	return dst
}

// PointAt returns the i-th point in registration order, Points()[i], without
// gathering the rest.
func (sn *Snapshot) PointAt(i int) geom.Point { return sn.flat[sn.order[i]] }

// Touch records one estimate served from this snapshot. The count is the
// tuner's per-relation traffic signal: hot relations keep (or regain)
// their declared resolution, cold ones are shrunk first when the store is
// over its catalog byte budget. Safe for concurrent use; a no-op on
// snapshots that predate the store (zero value) or tests that build
// snapshots by hand.
func (sn *Snapshot) Touch() {
	if sn.hits != nil {
		sn.hits.Add(1)
	}
}

// TouchN records n estimates served from this snapshot in one call (the
// batch endpoint's accounting).
func (sn *Snapshot) TouchN(n int) {
	if sn.hits != nil && n > 0 {
		sn.hits.Add(int64(n))
	}
}

// RelationStatus is the externally visible state of one relation, as served
// by listings and status endpoints. It is a value type copied out of the
// store, never a live reference.
type RelationStatus struct {
	Name    string `json:"name"`
	State   string `json:"state"`
	Version uint64 `json:"version"`
	Error   string `json:"error,omitempty"`
	// The remaining fields describe the published snapshot and are zero
	// until the first publication.
	NumPoints        int `json:"num_points"`
	NumBlocks        int `json:"num_blocks"`
	StaircaseBytes   int `json:"staircase_bytes"`
	VirtualGridBytes int `json:"virtual_grid_bytes"`
	AknnBytes        int `json:"aknn_bytes"`
	ArtifactBytes    int `json:"artifact_bytes"`
	// Resolution is the published snapshot's effective resolution;
	// DeclaredResolution is what registration asked for. They differ only
	// while the space-budget tuner holds the relation at a coarser rung.
	Resolution         core.Resolution `json:"resolution"`
	DeclaredResolution core.Resolution `json:"declared_resolution"`
	// Delta overlay depth: mutations acknowledged but not yet compacted
	// into the published snapshot. All zero when the relation is settled.
	DeltaOps    int   `json:"delta_ops,omitempty"`
	DeltaPoints int   `json:"delta_points,omitempty"`
	DeltaAgeMs  int64 `json:"delta_age_ms,omitempty"`
}

// View is an immutable snapshot of the whole store: every published
// relation and the listing. A View loaded once stays internally consistent
// forever; later registrations, rebuilds and drops produce new Views without
// touching old ones; all a View gains once published is memoised pair merges.
type View struct {
	relations map[string]*Snapshot
	names     []string         // sorted names of published relations
	statuses  []RelationStatus // sorted listing incl. unpublished relations
	pairs     *sync.Map        // pairKey → *pairSlot, for every pair a join or plan asked for
	store     *Store           // resolves the merges; nil only in emptyView, which has no pair
}

// pairKey is {outer, inner} by identity: no slot serves another generation.
type pairKey [2]*Snapshot

// pairSlot is the single-flight memo of one pair's Catalog-Merge; a failure
// is kept like a result, until either relation publishes again.
type pairSlot struct {
	once  sync.Once
	est   core.JoinEstimator // the *core.CatalogMerge
	err   error
	bytes atomic.Int64 // the merge's SizeBytes() once resolved; what PairMerges reads
}

var emptyView = &View{relations: map[string]*Snapshot{}, pairs: new(sync.Map)}

// Relation returns the published snapshot for name, or nil. It performs no
// heap allocations.
func (v *View) Relation(name string) *Snapshot { return v.relations[name] }

// PairMerges counts the pair merges this View holds resolved, and their bytes.
func (v *View) PairMerges() (n int, bytes int64) {
	v.pairs.Range(func(_, slot any) bool {
		if b := slot.(*pairSlot).bytes.Load(); b > 0 {
			n, bytes = n+1, bytes+b
		}
		return true
	})
	return n, bytes
}

// JoinEstimator resolves a join technique for two snapshots of this View.
// Catalog-Merge is the View's own pair merge: a stored relation's engine is
// never asked for one, because an engine pair slot would keep the inner
// generation reachable for as long as the outer one lives. The first request
// for a pair resolves its merge (Store.mergeFor), no store lock held; a later
// one allocates nothing. Other techniques resolve through the engines.
func (v *View) JoinEstimator(jt engine.JoinTechnique, outer, inner *Snapshot) (core.JoinEstimator, error) {
	if jt.Name != engine.TechCatalogMerge {
		return jt.Estimator(outer.Engine, inner.Engine)
	}
	key := pairKey{outer, inner}
	slot, ok := v.pairs.Load(key)
	if !ok {
		slot, _ = v.pairs.LoadOrStore(key, new(pairSlot))
	}
	p := slot.(*pairSlot)
	p.once.Do(func() {
		if m, err := v.store.mergeFor(outer, inner); err != nil {
			p.err = err
		} else {
			p.est = m
			p.bytes.Store(int64(m.SizeBytes()))
		}
	})
	return p.est, p.err
}

// Names returns the sorted names of the published relations. The slice is
// shared; callers must not modify it.
func (v *View) Names() []string { return v.names }

// List returns the status of every relation known when the View was
// published (including queued, building and failed ones), sorted by name.
// The slice is shared; callers must not modify it.
func (v *View) List() []RelationStatus { return v.statuses }

// NumRelations returns the number of published relations.
func (v *View) NumRelations() int { return len(v.relations) }

// entry is the store's mutable bookkeeping for one relation, guarded by
// Store.mu. The published Snapshot itself is immutable; entry tracks which
// build generation is wanted, which is published, and the build status.
type entry struct {
	name string
	// gen counts registrations; a finished build publishes only if its
	// generation is still current (stale builds are discarded silently).
	gen uint64
	// state is the externally visible build status.
	state State
	err   string
	// pendingPts is the source of the wanted generation.
	pendingPts []geom.Point
	// pendingBundle is the bundle recovery read pendingPts from, so that
	// the build need not read the file again.
	pendingBundle *bundle
	// snap is the currently published snapshot, nil before first publish.
	snap *Snapshot
	// cancel aborts the in-flight build when superseded or dropped.
	cancel context.CancelFunc

	// res is the effective resolution of the wanted generation;
	// declaredRes is what registration asked for. They diverge only while
	// the space-budget tuner holds the relation tunerSteps rungs down the
	// coarsening ladder.
	res         core.Resolution
	declaredRes core.Resolution
	tunerSteps  int
	// tunerFloor caps tunerSteps: a shrink whose published q-error blew
	// the tolerance sets the floor one step back and is never repeated.
	tunerFloor int
	// tunerProbed is the snapshot version the q-error probe last checked,
	// so each published rebuild is probed at most once.
	tunerProbed uint64
	// hits counts estimates served from this relation's snapshots
	// (Snapshot.Touch); the tuner swaps it to zero every pass, making the
	// value per-pass traffic. Shared with every published snapshot.
	hits *atomic.Int64
	// pending is the delta overlay: durably logged mutations not yet
	// folded into the published snapshot, in LSN order.
	pending []mutation
	// ckptLSN is the mutation watermark the wanted generation folds in;
	// the publish step writes it into the WAL checkpoint and drops the
	// covered prefix of pending.
	ckptLSN uint64
	// isCompact marks the wanted generation as a delta compaction (for
	// the compaction counter; compactions also re-trigger on leftovers).
	isCompact bool
	// durableFP is the fingerprint the registry holds for this relation
	// (restored from it, or adopted by the last successful publish); WAL
	// checkpoints are effective on replay only if they match.
	durableFP string
	// replayDropped is set while replay scans a KindDrop record; if no
	// later effective checkpoint revives the name, the drop is finished.
	replayDropped bool
	// durableCovered / rememberFailed track how much of the log durableFP
	// has absorbed, pinning WAL trim when a registry write fails.
	durableCovered uint64
	rememberFailed bool
}

// ErrQueueFull is returned by Register when the build queue is saturated.
var ErrQueueFull = errors.New("store: build queue full")

// ErrClosed is returned by Register after Close.
var ErrClosed = errors.New("store: closed")

// Store is a concurrent, versioned relation store. The zero value is not
// usable; call New.
type Store struct {
	opt   Options
	cache *diskCache // nil without CacheDir
	wal   *wal.WAL   // nil without CacheDir

	view atomic.Pointer[View]

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool
	seq     uint64 // mutation sequence when the WAL is disabled
	pubSeq  uint64 // Snapshot.seq of the latest publish
	// publishHooks run under s.mu whenever a relation's published snapshot
	// changes (hot swap, compaction publish, drop); see AddPublishHook.
	publishHooks []func(relation string)

	jobs   chan string // build signals; one per Queued transition
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	stopCompact   chan struct{} // nil when the interval compactor is off
	compactorDone chan struct{}

	stopTuner chan struct{} // nil when the background tuner is off
	tunerDone chan struct{}

	// catalogBuilds counts catalogs actually constructed (staircase, virtual
	// grid, aknn summary, a catalog-merge per pair asked for); warm restarts
	// that load all from the disk cache leave it at zero.
	catalogBuilds atomic.Int64
	// cacheHits counts catalogs loaded from the disk cache instead of built.
	cacheHits atomic.Int64
	// walReplayed counts mutation records replayed from the WAL at startup;
	// walTruncated counts torn tails (and dropped follow-on segments)
	// repaired; compactions counts published delta compactions.
	walReplayed  atomic.Int64
	walTruncated atomic.Int64
	compactions  atomic.Int64

	// Tuner counters (see tuner.go): passes run, shrink/grow rebuilds
	// scheduled, q-error reverts, shrinks refused by a q-error floor, and
	// the artifact-byte total measured by the latest pass.
	tunerPasses  atomic.Int64
	tunerShrinks atomic.Int64
	tunerGrows   atomic.Int64
	tunerReverts atomic.Int64
	tunerBlocked atomic.Int64
	tunerBytes   atomic.Int64
}

// New creates a Store and starts its build workers. When CacheDir is set,
// the write-ahead log in <CacheDir>/wal[-scope] is replayed and relations
// recorded in the cache registry are re-registered immediately with their
// unflushed deltas pending (their builds resolve from the cache, so they
// become ready without any catalog construction, and leftover deltas
// compact right after the first publish).
func New(opt Options) (*Store, error) {
	opt = opt.withDefaults()
	s := &Store{
		opt:     opt,
		entries: map[string]*entry{},
		jobs:    make(chan string, opt.QueueLen),
	}
	s.view.Store(emptyView)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	var replay wal.Replay
	if opt.CacheDir != "" {
		c, err := openDiskCache(opt.CacheDir, opt.RegistryScope, opt.logger())
		if err != nil {
			return nil, fmt.Errorf("store: opening cache: %w", err)
		}
		c.hook = opt.crashHook
		s.cache = c
		walDir := "wal"
		if opt.RegistryScope != "" {
			walDir = "wal-" + opt.RegistryScope
		}
		w, rep, err := wal.Open(wal.Options{
			Dir:          filepath.Join(opt.CacheDir, walDir),
			SegmentBytes: opt.WALSegmentBytes,
			SyncInterval: opt.WALSyncInterval,
			Logger:       opt.Logger,
			OpHook:       opt.crashHook,
		})
		if err != nil {
			return nil, fmt.Errorf("store: opening wal: %w", err)
		}
		s.wal = w
		replay = rep
		s.walTruncated.Store(int64(rep.TruncatedTails + rep.DroppedSegments))
		if rep.TruncatedTails > 0 || rep.DroppedSegments > 0 {
			s.opt.logger().Printf("store: wal repaired on replay: %d torn tails truncated, %d segments dropped", rep.TruncatedTails, rep.DroppedSegments)
		}
	}
	// Hold the lock across worker startup and recovery: a worker grabs the
	// lock before building, so no build can publish until every restored
	// relation carries its replayed deltas.
	s.mu.Lock()
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cache != nil {
		s.recoverLocked(replay.Records)
	}
	s.mu.Unlock()
	if opt.CompactInterval > 0 {
		s.stopCompact = make(chan struct{})
		s.compactorDone = make(chan struct{})
		go s.compactor()
	}
	if opt.CatalogBudgetBytes > 0 && opt.TunerInterval > 0 {
		s.stopTuner = make(chan struct{})
		s.tunerDone = make(chan struct{})
		go s.tuner()
	}
	return s, nil
}

// Options returns the store's effective (defaulted) options.
func (s *Store) Options() Options { return s.opt }

// View returns the current immutable view. The returned pointer is safe to
// use for any number of lookups; it never blocks and never observes a
// half-published schema.
func (s *Store) View() *View { return s.view.Load() }

// AddPublishHook registers fn to be called with a relation's name every
// time that relation's published snapshot changes: a first publication, a
// hot swap (re-registration rebuild), a compaction publish, or a drop. The
// call happens after the new View is swapped in, so fn observes the
// post-change schema through View(). Hooks run synchronously under the
// store's lock: they must be fast and must not call back into the store.
//
// The plan cache hangs its invalidation off this hook — firing after the
// View swap means a plan keyed by the old snapshot version is invalidated
// only once lookups can no longer resolve that version, so there is no
// window in which a stale plan is both resolvable and uninvalidated.
func (s *Store) AddPublishHook(fn func(relation string)) {
	s.mu.Lock()
	s.publishHooks = append(s.publishHooks, fn)
	s.mu.Unlock()
}

// notifyPublishLocked fires the publish hooks for name. Caller holds s.mu.
func (s *Store) notifyPublishLocked(name string) {
	for _, fn := range s.publishHooks {
		fn(name)
	}
}

// CatalogBuilds returns the number of catalogs constructed so far (cache
// hits excluded).
func (s *Store) CatalogBuilds() int64 { return s.catalogBuilds.Load() }

// CacheHits returns the number of catalogs loaded from the disk cache.
func (s *Store) CacheHits() int64 { return s.cacheHits.Load() }

// CacheSweptFiles returns the number of dead cache files — bundles and merge
// side-files of generations no registry names any more — this store has
// unlinked (0 without a cache directory).
func (s *Store) CacheSweptFiles() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.sweptFiles.Load()
}

// CacheSweptBytes returns the summed size of the files CacheSweptFiles
// counts.
func (s *Store) CacheSweptBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.sweptBytes.Load()
}

// validateName rejects names that would be unusable in URLs or cache paths.
func validateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("store: relation name must be 1-64 characters, got %d", len(name))
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return fmt.Errorf("store: relation name %q contains %q (allowed: letters, digits, '_', '-', '.')", name, r)
		}
	}
	return nil
}

// Register schedules a (re)build of name from the given points and returns
// the resulting status (queued). If name is already registered, the new
// points supersede the old ones: a queued build picks them up in place, a
// running build is cancelled and re-scheduled, and a published snapshot
// keeps serving until the new version is ready. The call never waits for
// the build; use WaitReady or Status to observe completion.
func (s *Store) Register(name string, pts []geom.Point) (RelationStatus, error) {
	return s.RegisterResolution(name, pts, core.Resolution{})
}

// RegisterResolution is Register with a per-relation artifact resolution:
// catalog depth (MaxK), staircase corner budget, virtual-grid granularity
// and aknn partition capacity. Zero axes inherit the store-wide options,
// so the zero resolution is exactly Register. The resolution is the
// relation's declared accuracy; the space-budget tuner may serve it
// coarser under memory pressure, but never refuses the registration.
func (s *Store) RegisterResolution(name string, pts []geom.Point, res core.Resolution) (RelationStatus, error) {
	if err := validateName(name); err != nil {
		return RelationStatus{}, err
	}
	if len(pts) == 0 {
		return RelationStatus{}, fmt.Errorf("store: relation %q has no points", name)
	}
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return RelationStatus{}, fmt.Errorf("store: relation %q point %d is not finite: %v", name, i, p)
		}
	}
	res = s.opt.resolveResolution(res)
	if err := res.Validate(); err != nil {
		return RelationStatus{}, fmt.Errorf("store: relation %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RelationStatus{}, ErrClosed
	}
	e := s.entries[name]
	isNew := e == nil
	if isNew {
		e = &entry{name: name, hits: &atomic.Int64{}}
	}
	if err := s.enqueueLocked(e, pts); err != nil {
		return RelationStatus{}, err
	}
	if isNew {
		s.entries[name] = e
	}
	// A user registration replaces base and deltas wholesale: pending
	// mutations are obsolete, and the publish checkpoint covers everything
	// logged so far for this relation. The declared resolution resets the
	// tuner state too — a re-registration is a fresh accuracy contract.
	e.pending = nil
	e.ckptLSN = s.lastLSNLocked()
	e.isCompact = false
	e.res, e.declaredRes = res, res
	e.tunerSteps, e.tunerFloor, e.tunerProbed = 0, math.MaxInt, 0
	s.republishLocked()
	return e.statusLocked(), nil
}

// enqueueLocked stages pts as e's wanted generation and ensures a
// build signal is queued, superseding any in-flight build. On ErrQueueFull
// the entry is untouched. Caller holds s.mu.
func (s *Store) enqueueLocked(e *entry, pts []geom.Point) error {
	// Close sets s.closed and closes s.jobs under the same lock, so this
	// check is what keeps late enqueues — a finishing build's follow-up
	// compaction, a racing Flush — from sending on the closed channel.
	if s.closed {
		return ErrClosed
	}
	if e.state != StateQueued {
		// Reserve the queue slot before mutating anything, so a saturated
		// queue leaves the store untouched.
		select {
		case s.jobs <- e.name:
		default:
			return ErrQueueFull
		}
	}
	e.gen++
	e.pendingPts = pts
	if e.state == StateBuilding && e.cancel != nil {
		e.cancel() // supersede the in-flight build
	}
	e.state = StateQueued
	e.err = ""
	return nil
}

// lastLSNLocked returns the newest assigned mutation sequence number.
func (s *Store) lastLSNLocked() uint64 {
	if s.wal != nil {
		return s.wal.LastLSN()
	}
	return s.seq
}

// Drop removes a relation: pending and running builds are cancelled, the
// published snapshot (if any) leaves the next View, the cache registry
// forgets the name and the relation's cached artifacts are swept, unless
// another relation or another store on the directory still names them (a
// re-registration of the same data rebuilds). In-flight estimates holding an
// older View keep working on the snapshot they resolved. It reports whether
// the relation existed.
func (s *Store) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return false
	}
	// Log the drop and make it durable before the registry forgets the
	// name: a crash in between then replays the drop instead of
	// resurrecting the relation from the still-registered fingerprint.
	if s.wal != nil {
		if _, err := s.wal.Append(wal.Record{Kind: wal.KindDrop, Relation: name}); err != nil {
			s.opt.logger().Printf("store: logging drop of %q: %v", name, err)
		} else if err := s.wal.Sync(); err != nil {
			s.opt.logger().Printf("store: syncing drop of %q: %v", name, err)
		}
	}
	if e.cancel != nil {
		e.cancel()
	}
	delete(s.entries, name)
	s.republishLocked()
	s.notifyPublishLocked(name)
	if s.cache != nil {
		forgotten, err := s.cache.forget(name)
		if err != nil {
			s.opt.logger().Printf("store: updating cache registry after dropping %q: %v", name, err)
		}
		s.cache.sweep(forgotten)
	}
	s.trimWALLocked()
	return true
}

// Status returns the current status of name.
func (s *Store) Status(name string) (RelationStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		return RelationStatus{}, false
	}
	return e.statusLocked(), true
}

// WaitReady blocks until every named relation is ready, any of them fails
// (the first failure is returned as an error), or ctx expires. With no
// names it waits for every relation known at call time.
func (s *Store) WaitReady(ctx context.Context, names ...string) error {
	if len(names) == 0 {
		s.mu.Lock()
		for name := range s.entries {
			names = append(names, name)
		}
		s.mu.Unlock()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		done := true
		s.mu.Lock()
		var failed error
		for _, name := range names {
			e := s.entries[name]
			if e == nil {
				failed = fmt.Errorf("store: relation %q is not registered", name)
				break
			}
			switch e.state {
			case StateReady:
			case StateFailed:
				failed = fmt.Errorf("store: building %q: %s", name, e.err)
			default:
				done = false
			}
			if failed != nil {
				break
			}
		}
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close drains the build pool: no new registrations are accepted, queued
// builds are skipped, and in-flight builds get until ctx expires to finish
// before being cancelled. Close always waits for the workers to exit.
func (s *Store) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()

	if s.stopCompact != nil {
		close(s.stopCompact)
		<-s.compactorDone
	}
	if s.stopTuner != nil {
		close(s.stopTuner)
		<-s.tunerDone
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // hard-cancel in-flight builds; they abort between stages
		<-done
	}
	s.cancel()
	// Workers are done publishing (and checkpointing); seal the log. Any
	// deltas still pending stay in the WAL and replay on the next start.
	if s.wal != nil {
		if werr := s.wal.Close(); werr != nil {
			s.opt.logger().Printf("store: closing wal: %v", werr)
		}
	}
	return err
}

func (s *Store) worker() {
	defer s.wg.Done()
	for name := range s.jobs {
		s.runJob(name)
	}
}

// runJob consumes one build signal. The signal's relation may have been
// dropped, superseded or already picked up by another worker; the
// generation check at publish time makes any stale outcome a silent no-op.
func (s *Store) runJob(name string) {
	s.mu.Lock()
	e := s.entries[name]
	if e == nil || s.closed || e.state != StateQueued {
		s.mu.Unlock()
		return
	}
	gen := e.gen
	pts, restored := e.pendingPts, e.pendingBundle
	e.pendingBundle = nil
	res := e.res
	ctx, cancel := context.WithCancel(s.ctx)
	e.cancel = cancel
	e.state = StateBuilding
	s.republishLocked()
	s.mu.Unlock()

	built, err := s.buildCatalogs(ctx, name, pts, res, restored)
	cancel()
	if s.opt.crashHook != nil {
		s.opt.crashHook("built") // the bundle is on disk and nothing names it yet
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.entries[name]
	if cur == nil || cur.gen != gen {
		// Dropped or superseded while building: discard, and with the build
		// the bundle it wrote, which nothing will register.
		if built != nil && s.cache != nil {
			s.cache.sweep(built.fp)
		}
		return
	}
	cur.cancel = nil
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("build cancelled: %w", err)
		}
		cur.state = StateFailed
		cur.err = err.Error()
		cur.pendingPts = nil // nothing builds from them again: a retry is a new registration or a compaction
		s.republishLocked()
		s.opt.logger().Printf("store: building %q: %v", name, err)
		return
	}
	s.publishLocked(cur, built)
	// Deltas that arrived while this build ran (or were replayed at
	// startup) are still pending: fold them in the next round.
	if cur.state == StateReady && len(cur.pending) > 0 {
		s.compactLocked(cur)
	}
}

// builtRelation carries a finished per-relation build from the worker into
// the publish step.
type builtRelation struct {
	tree      *index.Tree
	count     *index.Tree
	staircase *core.Staircase
	density   *core.DensityBased
	vgrid     *core.VirtualGrid
	aknn      *aknn.Summary
	pts       []geom.Point // registration-order source points; garbage once published
	flat      []geom.Point // tree's point array and pts' positions in it: what the snapshot keeps
	order     []uint32
	fp        string          // fingerprint of pts at res
	res       core.Resolution // the resolution the artifacts were built at
	merges    mergeRecs       // fp's side-file records, when cache-loaded
}

// buildCatalogs constructs (or cache-loads) every per-relation estimator
// at the given resolution; restored, when it carries the same fingerprint,
// stands in for the bundle on disk. It runs without any store lock; ctx
// aborts it between stages.
func (s *Store) buildCatalogs(ctx context.Context, name string, pts []geom.Point, res core.Resolution, restored *bundle) (*builtRelation, error) {
	res = res.Canon()
	bounds := s.opt.Bounds
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		bounds = boundsOf(pts)
	}
	b := &builtRelation{pts: pts, res: res, fp: s.fingerprint(pts, res)}
	qt := quadtree.Build(pts, quadtree.Options{
		Capacity: s.opt.IndexCapacity,
		Bounds:   bounds,
	})
	b.tree = qt.Index()
	if b.tree.NumBlocks() == 0 {
		return nil, fmt.Errorf("relation %q indexed to zero blocks", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.flat, b.order = qt.Flat(pts)
	b.count = b.tree.CountTree()
	b.density = core.NewDensityBased(b.count)

	if s.cache != nil && s.loadCachedCatalogs(b, restored) {
		return b, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stair, err := core.BuildStaircase(b.tree, core.StaircaseOptions{
		MaxK:     res.MaxK,
		Mode:     res.StaircaseMode(),
		Fallback: b.density,
	})
	if err != nil {
		return nil, fmt.Errorf("staircase: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.staircase = stair
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vg, err := core.BuildVirtualGrid(b.count, res.GridSize, res.GridSize, res.MaxK)
	if err != nil {
		return nil, fmt.Errorf("virtual grid: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.vgrid = vg
	b.aknn = aknn.BuildSummaryCapacity(b.count, res.AknnCapacity)
	s.catalogBuilds.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.cache != nil {
		if err := s.storeBundle(b); err != nil {
			s.opt.logger().Printf("store: caching %q: %v (the publish tries once more)", name, err)
		}
	}
	return b, nil
}

// loadCachedCatalogs tries to satisfy a build from the bundle recovery
// already read, else from the disk cache. Any mismatch or corruption is a
// miss, never an error: the caller rebuilds.
func (s *Store) loadCachedCatalogs(b *builtRelation, bd *bundle) bool {
	if bd == nil || bd.fp != b.fp {
		var err error
		if bd, err = s.cache.loadBundle(b.fp); err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				s.opt.logger().Printf("store: cache load %s: %v (rebuilding)", shortFP(b.fp), err)
			}
			return false
		}
	}
	if bd.man != s.manifestFor(b) {
		return false
	}
	stair, err := core.LoadStaircaseMapped(b.tree, bd.stair, core.StaircaseOptions{Fallback: b.density})
	if err != nil {
		s.opt.logger().Printf("store: cache load %s: staircase: %v (rebuilding)", shortFP(b.fp), err)
		return false
	}
	b.staircase, b.vgrid, b.aknn, b.merges = stair, bd.vgrid, bd.aknn, bd.merges
	s.cacheHits.Add(3) // staircase + virtual grid + aknn summary
	return true
}

// storeBundle writes b's bundle: points and artifacts, built or cache-loaded,
// encode to the same bytes.
func (s *Store) storeBundle(b *builtRelation) error {
	return s.cache.storeBundle(b.fp, s.manifestFor(b), b.pts, b.staircase, b.vgrid, b.aknn)
}

func (s *Store) manifestFor(b *builtRelation) manifest {
	return manifest{
		NumPoints:    int64(b.tree.NumPoints()),
		NumBlocks:    int64(b.tree.NumBlocks()),
		MaxK:         int64(b.res.MaxK),
		Corners:      int64(b.res.Corners),
		SampleSize:   int64(s.opt.SampleSize),
		GridSize:     int64(b.res.GridSize),
		AknnCapacity: int64(b.res.AknnCapacity),
		Capacity:     int64(s.opt.IndexCapacity),
	}
}

// publishLocked turns a finished build into the next published version:
// the relation's snapshot, its durable form, and a fresh View. It runs under
// s.mu — publication is serialized — and builds nothing: the new snapshot's
// pair merges are resolved when asked for. Readers never block on it.
func (s *Store) publishLocked(e *entry, b *builtRelation) {
	version := uint64(1)
	if e.snap != nil {
		version = e.snap.Version + 1
	}
	eng := engine.NewRelationWithCount(e.name, b.tree, b.count,
		engine.BuildOptions{SampleSize: s.opt.SampleSize}.WithResolution(b.res))
	// Seed the engine with the artifacts this build already produced (or
	// cache-loaded), so technique resolution never rebuilds what the store
	// has: the engine serves these exact objects, bit for bit. The
	// staircase seeds under the technique its mode (the resolution's corner
	// budget) selects; artifacts key by their own reported resolution.
	eng.Seed(engine.TechDensity, b.density)
	eng.Seed(engine.StaircaseTechnique(b.staircase.Mode()), b.staircase)
	eng.Seed(engine.TechVirtualGrid, b.vgrid)
	eng.Seed(engine.TechAknnBounds, b.aknn)
	stairBytes, vgBytes, aknnBytes := b.staircase.SizeBytes(), b.vgrid.SizeBytes(), b.aknn.SizeBytes()
	snap := &Snapshot{
		Name:           e.name,
		Version:        version,
		Fingerprint:    b.fp,
		Tree:           b.tree,
		Count:          b.count,
		Staircase:      b.staircase,
		Density:        b.density,
		VGrid:          b.vgrid,
		Aknn:           b.aknn,
		Engine:         eng,
		Resolution:     b.res,
		StaircaseBytes: stairBytes,
		VGridBytes:     vgBytes,
		AknnBytes:      aknnBytes,
		ArtifactBytes:  stairBytes + vgBytes + aknnBytes,
		hits:           e.hits,
		merges:         b.merges,
		flat:           b.flat,
		order:          b.order,
	}
	s.pubSeq++
	snap.seq = s.pubSeq
	e.snap = snap
	e.state = StateReady
	e.err = ""
	e.pendingPts = nil
	covered := e.ckptLSN
	wasCompact := e.isCompact
	e.isCompact = false
	// Deltas this build folded in are acknowledged by the snapshot now;
	// anything logged after the fold stays pending for the next round.
	e.pending = filterCovered(e.pending, covered)
	// The next View is swapped in last, after the registry write: a reader
	// is told a relation is ready only once a restart would restore it.
	v := s.buildViewLocked()
	var replaced string
	if s.cache != nil {
		replaced = s.persistLocked(e, b, covered)
	}
	s.view.Store(v)
	s.notifyPublishLocked(e.name)
	if replaced != "" {
		s.cache.sweep(replaced)
	}
	if wasCompact {
		s.compactions.Add(1)
	}
}

// persistLocked makes e's new snapshot the durable base. Order: make sure
// the bundle is on disk, checkpoint the fold in the WAL, fsync it, and only
// then let the registry adopt the new fingerprint. Replay treats a checkpoint
// whose fingerprint the registry never adopted as ineffective, so a crash
// anywhere in this sequence recovers a consistent base + delta state. All of
// it runs under the cache directory's lock, shared: no store on the directory
// can sweep between the moment the bundle is seen on disk and the moment the
// registry names it. It returns the fingerprint the registry held for e
// before, now a dead generation for the caller to sweep once the lock is
// released.
func (s *Store) persistLocked(e *entry, b *builtRelation, covered uint64) (replaced string) {
	release, _ := s.cache.lock(false) // unobtainable only where no sweep can run either
	defer release()
	// buildCatalogs wrote the bundle, or loaded it, some time ago and
	// without the lock. Since then a sweep may have taken it: a peer's, for
	// which it was a dead generation not yet named here, or this store's
	// own, when a relation returns to a fingerprint it has just left. The
	// build still holds everything the file held.
	if !s.cache.hasBundle(b.fp) {
		if err := s.storeBundle(b); err != nil {
			// No bundle, no restore: keep the previous fingerprint registered
			// and the log pinned, as for a failed registry write.
			s.opt.logger().Printf("store: caching %q: %v (serving it, but not restorable)", e.name, err)
			e.rememberFailed = true
			return ""
		}
	}
	// A warm restart republishes the base its log already checkpoints; it
	// appends nothing (and remember, below, finds nothing to write).
	if s.wal != nil && (b.fp != e.durableFP || covered != e.durableCovered) {
		_, err := s.wal.Append(wal.Record{Kind: wal.KindCheckpoint, Relation: e.name, Covered: covered, Fingerprint: b.fp})
		if err == nil {
			err = s.wal.Sync()
		}
		if err != nil {
			// Without a durable checkpoint the registry must keep the old
			// fingerprint: adopting the new one would double-apply the
			// covered deltas on replay.
			s.opt.logger().Printf("store: checkpointing %q: %v (registry not updated)", e.name, err)
			e.rememberFailed = true
			return ""
		}
	}
	replaced, err := s.cache.remember(e.name, b.fp, b.res, e.declaredRes)
	if err != nil {
		s.opt.logger().Printf("store: updating cache registry for %q: %v", e.name, err)
		e.rememberFailed = true
	} else {
		e.rememberFailed = false
		e.durableFP, e.durableCovered = b.fp, covered
	}
	s.trimWALLocked()
	return replaced
}

// republishLocked swaps in a View of the current entries; for every change
// but a new snapshot, which publishLocked alone makes (and persists first).
func (s *Store) republishLocked() {
	s.view.Store(s.buildViewLocked())
}

// buildViewLocked assembles the next View from the current entries. A View
// is immutable, so what did not change is shared with the current one: all
// but the listing when no snapshot changed (a status or delta-depth
// update); otherwise the pair table starts over with the slots — resolved,
// failed or in flight — whose two snapshots are both still published.
func (s *Store) buildViewLocked() *View {
	old := s.view.Load()
	v := &View{relations: old.relations, names: old.names, pairs: old.pairs, store: s,
		statuses: make([]RelationStatus, 0, len(s.entries))}
	changed := false
	for name, e := range s.entries {
		v.statuses = append(v.statuses, e.statusLocked())
		changed = changed || e.snap != old.relations[name]
	}
	sort.Slice(v.statuses, func(i, j int) bool { return v.statuses[i].Name < v.statuses[j].Name })
	for _, name := range old.names {
		changed = changed || s.entries[name] == nil // dropped
	}
	if !changed {
		return v
	}
	v.relations = make(map[string]*Snapshot, len(s.entries))
	v.names = make([]string, 0, len(s.entries))
	for name, e := range s.entries {
		if e.snap != nil {
			v.relations[name] = e.snap
			v.names = append(v.names, name)
		}
	}
	sort.Strings(v.names)
	v.pairs = new(sync.Map)
	old.pairs.Range(func(key, slot any) bool {
		if p := key.(pairKey); v.relations[p[0].Name] == p[0] && v.relations[p[1].Name] == p[1] {
			v.pairs.Store(key, slot)
		}
		return true
	})
	return v
}

// mergeFor resolves the Catalog-Merge of one ordered pair, never under s.mu:
// from the side-file records either snapshot was loaded with, else by
// building it and adding it to the side-file of the pair's younger snapshot.
func (s *Store) mergeFor(outer, inner *Snapshot) (*core.CatalogMerge, error) {
	if s.opt.crashHook != nil {
		s.opt.crashHook("merge")
	}
	ko, okOuter := peerOf(outer.Fingerprint)
	ki, okInner := peerOf(inner.Fingerprint)
	for _, raw := range [2][]byte{outer.merges[ki][0], inner.merges[ko][1]} {
		if m, err := core.LoadCatalogMergeMapped(raw); err == nil && okOuter && okInner {
			s.cacheHits.Add(1)
			return m, nil
		}
	}
	// The merge's catalog depth follows the outer relation's effective
	// resolution, matching the engine's CatalogMerge accessor.
	m, err := core.BuildCatalogMerge(outer.Count, inner.Count, s.opt.SampleSize, outer.Resolution.MaxK)
	if err != nil {
		s.opt.logger().Printf("store: catalog-merge %s⋉%s: %v", outer.Name, inner.Name, err)
		return nil, err
	}
	s.catalogBuilds.Add(1)
	if s.cache != nil && okOuter && okInner {
		fp, peer, dir := outer.Fingerprint, ki, 0
		if inner.seq > outer.seq {
			fp, peer, dir = inner.Fingerprint, ko, 1
		}
		if err := s.cache.storeMerge(fp, peer, dir, m.AppendMapped(nil)); err != nil {
			s.opt.logger().Printf("store: caching merge %s⋉%s: %v (continuing uncached)", outer.Name, inner.Name, err)
		}
	}
	return m, nil
}

// statusLocked snapshots the externally visible state of e.
func (e *entry) statusLocked() RelationStatus {
	st := RelationStatus{
		Name:  e.name,
		State: e.state.String(),
		Error: e.err,
	}
	if e.snap != nil {
		st.Version = e.snap.Version
		st.NumPoints = e.snap.Tree.NumPoints()
		st.NumBlocks = e.snap.Tree.NumBlocks()
		st.StaircaseBytes = e.snap.StaircaseBytes
		st.VirtualGridBytes = e.snap.VGridBytes
		st.AknnBytes = e.snap.AknnBytes
		st.ArtifactBytes = e.snap.ArtifactBytes
		st.Resolution = e.snap.Resolution
		st.DeclaredResolution = e.declaredRes
	}
	if len(e.pending) > 0 {
		st.DeltaOps = len(e.pending)
		st.DeltaPoints = pendingPoints(e)
		st.DeltaAgeMs = time.Since(e.pending[0].at).Milliseconds()
		if st.DeltaAgeMs < 1 {
			st.DeltaAgeMs = 1 // a fresh delta is still a visible one
		}
	}
	return st
}

// boundsOf returns the bounding rectangle of pts, slightly inflated so
// every point is strictly inside (a quadtree needs open upper edges).
func boundsOf(pts []geom.Point) geom.Rect {
	r := geom.NewRect(pts[0].X, pts[0].Y, pts[0].X, pts[0].Y)
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	w, h := r.Width(), r.Height()
	if w == 0 {
		w = 1
	}
	if h == 0 {
		h = 1
	}
	r.Min.X -= w * 0.001
	r.Min.Y -= h * 0.001
	r.Max.X += w * 0.001
	r.Max.Y += h * 0.001
	return r
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
