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
//     (Count-Index, staircase, density, Virtual-Grid, AkNN summary; the
//     points stay in the bundle the build wrote). Snapshots never change
//     after publication.
//   - All published snapshots live in a single immutable View swapped in
//     with one atomic pointer store (RCU, the same model an inference server
//     uses for hot model swaps). An in-flight estimate that loaded a View
//     keeps a fully consistent schema for its whole lifetime; a rebuild, drop
//     or registration never mutates anything a reader can see. View
//     resolution is one atomic load plus a map lookup and performs zero heap
//     allocations (a test pins this). The listing is not in the View: List
//     reads it from the store's bookkeeping, under the store lock, which a
//     publish never holds across its file I/O.
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
//     points, Count-Index, per-relation catalogs). A restarted store
//     publishes each cached relation from its bundle, with no build job and
//     no point decoded — a warm restart costs one verifying read per bundle,
//     not catalog-build seconds — and builds a pair merge again at its first
//     demand. The bundle of a generation no registry in the directory names
//     any more is swept, so the directory holds live data only, however many
//     compactions ran.
package store

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	// Bounds is the index bounds for point-registered relations; when set,
	// registrations and appends with a point outside it are refused. The
	// zero rectangle means "compute from the points".
	Bounds geom.Rect
	// Workers is the build-pool size. Zero means GOMAXPROCS.
	Workers int
	// QueueLen bounds pending build signals; registrations beyond it fail
	// with ErrQueueFull. Zero means 256.
	QueueLen int
	// CacheDir enables the warm-restart disk cache and, with it, the
	// write-ahead log. Empty disables both.
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
	// Logger receives cache warnings and build logs. Nil means the standard
	// logger.
	Logger *log.Logger
	// crashHook, when set, is the WAL's OpHook and fires before the disk
	// cache renames a bundle or registry into place or unlinks a swept file,
	// ("built") between a build and its publish and ("merge") before a pair
	// merge is built: the crash tests snapshot the directory then.
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

// fixedBounds returns Options.Bounds when it is set, a rectangle of positive
// area: then it is the region every relation's quadtree decomposes.
func (o Options) fixedBounds() (geom.Rect, bool) {
	b := o.Bounds
	return b, b.Valid() && b.Width() > 0 && b.Height() > 0
}

// checkPoints refuses a point no build can index: one that is not finite,
// or, when inBounds asks and Options.Bounds is set, one outside the bounds —
// the test quadtree.Build panics on, in a build worker.
func (o Options) checkPoints(pts []geom.Point, inBounds bool) error {
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("point %d is not finite: %v", i, p)
		}
	}
	if bounds, ok := o.fixedBounds(); ok && inBounds {
		if i := quadtree.FirstOutside(pts, bounds); i >= 0 {
			return fmt.Errorf("point %d %v is outside the bounds %v", i, pts[i], bounds)
		}
	}
	return nil
}

func (o Options) logger() *log.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return log.Default()
}

// Snapshot is one immutable published version of a relation: the
// Count-Index and every per-relation estimator, built together from the same
// points, which it reads back on demand (ReadPoints, Hydrate). All fields are
// read-only after publication; sharing a Snapshot across any number of
// goroutines is safe.
type Snapshot struct {
	// Name is the relation name.
	Name string
	// Version counts publications of this relation, starting at 1.
	Version uint64
	// Fingerprint identifies the point data + build options.
	Fingerprint string
	// Tree is the relation's Count-Index (§2: the data index's block bounds
	// and counts, no points): every estimator below, the engine's and the
	// View's pair merges read nothing else. Hydrate rebuilds the data index.
	Tree *index.Tree
	// Count is Tree, named for callers that ask for the Count-Index.
	Count *index.Tree
	// Artifacts are the per-relation estimators, built over Tree: the
	// paper's k-NN-Select staircase (§3), the density-based baseline, the
	// Virtual-Grid join catalogs (§4.3) and the bounds-only AkNN summary
	// (internal/aknn) of the aknn-bounds technique.
	engine.Artifacts
	// Engine is the relation's engine.Relation, seeded at publication with
	// the artifacts above so that technique resolution by name serves the
	// exact same estimator objects. Techniques the store does not precompute
	// (e.g. staircase-c) build lazily inside Engine, once per snapshot, over
	// the data index Hydrate returns, so the engine and the snapshot point
	// at each other.
	// Pair artifacts are the exception: the View owns them
	// (View.JoinEstimator), so that no snapshot holds a reference to another
	// relation's generation.
	Engine *engine.Relation
	// Resolution is the canonical artifact resolution this snapshot was
	// built at: the one its registration declared.
	Resolution core.Resolution
	// StaircaseBytes and VGridBytes are the serialized catalog sizes,
	// computed once at publication; AknnBytes is the aknn summary's.
	StaircaseBytes int
	VGridBytes     int
	AknnBytes      int

	// The points are the KNPT section of the bundle the publish persisted,
	// read through the file it opened — a sweep's unlink leaves an open file
	// readable — or, when no bundle was persisted, the section's bytes in
	// mem. Nothing closes the file but os.File's finalizer, once the last
	// snapshot holding it is garbage.
	file *os.File // nil: mem holds the section
	mem  []byte
	s    *Store
}

// ReadPoints returns the relation's points in registration order — the exact
// input that produced this snapshot, which the points endpoint serves so a
// peer shard can re-register them and arrive at a bit-identical build (same
// fingerprint, same tree, same catalogs). Each call reads a fresh slice, the
// caller's, from the generation's bundle or, without one, from the encoded
// section the snapshot keeps; it fails rather than return points that do not
// hash to Fingerprint.
func (sn *Snapshot) ReadPoints() ([]geom.Point, error) {
	if sn.file == nil {
		return decodePoints(sn.mem)
	}
	// The section starts every bundle, right after the fixed-size header.
	sec := make([]byte, pointsSize(sn.Tree.NumPoints()))
	if _, err := sn.file.ReadAt(sec, bundleHeader); err != nil {
		return nil, fmt.Errorf("reading the points of %s: %w", shortFP(sn.Fingerprint), err)
	}
	pts, err := decodePoints(sec)
	if err == nil && sn.s.fingerprint(pts, sn.Resolution) != sn.Fingerprint {
		return nil, fmt.Errorf("the points read from %s do not hash to its fingerprint", shortFP(sn.Fingerprint))
	}
	return pts, err
}

// Hydrate rebuilds the data index Tree counts: ReadPoints built at Tree's
// bounds and the store's leaf capacity, which yields Tree's blocks with their
// points (quadtree.Build is deterministic). It serves the readers that need
// points — the ground-truth endpoint and a staircase built after publish —
// and the result is the caller's.
func (sn *Snapshot) Hydrate() (*index.Tree, error) {
	pts, err := sn.ReadPoints()
	if err != nil {
		return nil, err
	}
	return quadtree.Build(pts, quadtree.Options{Capacity: sn.s.opt.IndexCapacity, Bounds: sn.Tree.Bounds()}), nil
}

// logicalPoints reads the points and folds muts into them.
func (sn *Snapshot) logicalPoints(muts []mutation) ([]geom.Point, error) {
	pts, err := sn.ReadPoints()
	if err != nil {
		return nil, fmt.Errorf("store: relation %q: %w", sn.Name, err)
	}
	return applyMutations(pts, muts), nil
}

// RelationStatus is the externally visible state of one relation, as served
// by listings and status endpoints. It is a value type copied out of the
// store, never a live reference.
type RelationStatus struct {
	Name    string
	State   string
	Version uint64
	Error   string
	// The remaining fields describe the published snapshot and are zero
	// until the first publication.
	NumPoints        int
	NumBlocks        int
	StaircaseBytes   int
	VirtualGridBytes int
	AknnBytes        int
	// Resolution is the resolution the published snapshot was built at.
	Resolution core.Resolution
	// Delta overlay depth: mutations acknowledged but not yet compacted
	// into the published snapshot. All zero when the relation is settled.
	DeltaOps    int
	DeltaPoints int
	DeltaAgeMs  int64
}

// View is an immutable snapshot of what an estimate resolves: every
// published relation and the pair merges asked for over them. A View loaded
// once stays internally consistent forever; later publishes and drops
// produce new Views without touching old ones; all a View gains once
// published is memoised pair merges.
type View struct {
	relations map[string]*Snapshot
	pairs     *sync.Map // pairKey → *pairSlot, for every pair a join or plan asked for
	store     *Store    // resolves the merges; nil only in emptyView, which has no pair
}

// pairKey is {outer, inner} by identity: no slot serves another generation.
type pairKey [2]*Snapshot

// pairSlot is the single-flight memo of one pair's Catalog-Merge; a failure
// is kept like a result, until either relation publishes again.
type pairSlot struct {
	once  sync.Once
	est   core.JoinEstimator // the *core.CatalogMerge
	err   error
	bytes atomic.Int64 // the merge's StorageBytes() once resolved; what PairMerges reads
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
// for a pair builds its merge, no store lock held; a later one allocates
// nothing. Other techniques resolve through the engines.
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
		s := v.store
		if s.opt.crashHook != nil {
			s.opt.crashHook("merge")
		}
		// The merge's catalog depth follows the outer relation's effective
		// resolution, matching the engine's CatalogMerge accessor.
		m, err := core.BuildCatalogMerge(outer.Tree, inner.Tree, s.opt.SampleSize, outer.Resolution.MaxK)
		if err != nil {
			s.opt.logger().Printf("store: catalog-merge %s⋉%s: %v", outer.Name, inner.Name, err)
			p.err = err
			return
		}
		s.catalogBuilds.Add(1)
		p.est = m
		p.bytes.Store(int64(m.StorageBytes()))
	})
	return p.est, p.err
}

// Names returns the sorted names of the published relations, in a slice of
// the caller's.
func (v *View) Names() []string {
	names := make([]string, 0, len(v.relations))
	for name := range v.relations {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

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
	// pendingPts is the source of the wanted generation; for a compaction,
	// pendingBase's points with pendingMuts folded in, which the build
	// worker reads.
	pendingPts  []geom.Point
	pendingBase *Snapshot
	pendingMuts []mutation
	// snap is the currently published snapshot, nil before first publish.
	snap *Snapshot
	// cancel aborts the in-flight build when superseded or dropped.
	cancel context.CancelFunc

	// res is the resolution the relation was registered at, which every
	// generation is built at.
	res core.Resolution
	// pending is the delta overlay: durably logged mutations not yet
	// folded into the published snapshot, in LSN order.
	pending []mutation
	// ckptLSN is the mutation watermark the wanted generation folds in;
	// the publish step registers it as the entry's covered LSN and drops the
	// covered prefix of pending.
	ckptLSN uint64
	// isCompact marks the wanted generation as a delta compaction (for
	// the compaction counter; compactions also re-trigger on leftovers).
	isCompact bool
	// durableFP and durableCovered are the relation's registry entry
	// (restored from it, or adopted by the last successful publish, under
	// pubMu as well, so a persist reads them under pubMu alone); durableStale
	// pins the WAL at durableCovered while the registry lacks what the
	// relation serves: a persist failed, or a re-registration dropped
	// pending deltas, or arrived while a generation persisted, and has not
	// published yet.
	durableFP      string
	durableCovered uint64
	durableStale   bool
	// publishing is set while a publish group holds a build of e: a wait
	// ends once the group has retired what it replaced.
	publishing bool
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

	// pubMu orders publishes against each other and against Drop, and is
	// taken before mu, which a publish never holds across file I/O.
	pubMu sync.Mutex

	mu      sync.Mutex
	entries map[string]*entry
	// lost holds the registry entries a restart could not verify: listed as
	// failed, each pins the log until Register or Drop replaces it.
	lost   map[string]*entry
	closed bool
	seq    uint64 // mutation sequence when the WAL is disabled
	// finished holds the builds waiting for a publish group; while leading,
	// a worker forms groups until none is left.
	finished []*member
	leading  bool
	// published is closed and replaced at every state change a wait may
	// end on — a View swap, a status change, a delta folded or rolled
	// back — and at Close.
	published chan struct{}
	// publishHooks run under s.mu whenever a relation's published snapshot
	// changes (hot swap, compaction publish, drop); see AddPublishHook.
	publishHooks []func(relation string)

	jobs   chan string // build signals; one per Queued transition
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	stopCompact   chan struct{} // nil when the interval compactor is off
	compactorDone chan struct{}

	// catalogBuilds counts catalogs actually constructed (staircase, virtual
	// grid, a catalog-merge per pair asked for); a warm restart that loads
	// every relation from the disk cache counts only the pairs asked for
	// since. The density estimator and the AkNN summary, rebuilt from the
	// index at every publish, count in neither this nor cacheHits.
	catalogBuilds atomic.Int64
	// cacheHits counts per-relation catalogs (staircase, virtual grid)
	// loaded from the disk cache instead of built.
	cacheHits atomic.Int64
	// walReplayed counts the logged mutations replay left pending at startup;
	// walTruncated counts torn tails (and dropped follow-on segments)
	// repaired; compactions counts published delta compactions.
	walReplayed  atomic.Int64
	walTruncated atomic.Int64
	compactions  atomic.Int64
	// persistFailures counts persist's failed steps: a member whose bundle
	// could not be kept, a log commit, a registry write.
	persistFailures atomic.Int64
}

// New creates a Store and starts its build workers. When CacheDir is set,
// the write-ahead log in <CacheDir>/wal[-scope] is replayed and the
// relations recorded in the cache registry are restored before New returns:
// each is published from its bundle with its unflushed deltas pending, and
// leftover deltas compact right away.
func New(opt Options) (*Store, error) {
	opt = opt.withDefaults()
	s := &Store{
		opt:       opt,
		entries:   map[string]*entry{},
		lost:      map[string]*entry{},
		published: make(chan struct{}),
		jobs:      make(chan string, opt.QueueLen),
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
			Dir:    filepath.Join(opt.CacheDir, walDir),
			Logger: opt.Logger,
			OpHook: opt.crashHook,
		})
		if err != nil {
			return nil, fmt.Errorf("store: opening wal: %w", err)
		}
		if err := lowerCovered(c, w.LastLSN(), s.opt.logger()); err != nil {
			w.Close()
			return nil, fmt.Errorf("store: lowering the registry to the log's end: %w", err)
		}
		s.wal = w
		replay = rep
		s.walTruncated.Store(int64(rep.TruncatedTails + rep.DroppedSegments))
		if rep.TruncatedTails > 0 || rep.DroppedSegments > 0 {
			s.opt.logger().Printf("store: wal repaired on replay: %d torn tails truncated, %d segments dropped", rep.TruncatedTails, rep.DroppedSegments)
		}
	}
	var queued []string
	var trim uint64
	if s.cache != nil {
		s.mu.Lock()
		queued, trim = s.recoverLocked(replay.Records)
		s.mu.Unlock()
	}
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	// Recovery is not admission: a build it staged waits for a slot rather
	// than fail on the queue bound, which is Register's.
	for _, name := range queued {
		s.jobs <- name
	}
	s.trimWAL(trim)
	if opt.CompactInterval > 0 {
		s.stopCompact = make(chan struct{})
		s.compactorDone = make(chan struct{})
		go s.compactor()
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

// PersistFailures returns the number of publish steps that could not make a
// build durable: a member whose bundle could not be written, opened or
// fsynced, and a group whose log commit or registry write failed. Each
// leaves the relation served but its registry entry stale and the log
// pinned.
func (s *Store) PersistFailures() int64 { return s.persistFailures.Load() }

// CacheSweptFiles returns the number of dead cache files — bundles of
// generations no registry names any more, and the merge side-files earlier
// versions wrote — this store has unlinked (0 without a cache directory).
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
	if r, bad := badRune(name); bad {
		return fmt.Errorf("store: relation name %q contains %q (allowed: letters, digits, '_', '-', '.')", name, r)
	}
	return nil
}

// badRune returns the first rune of s outside a name's [A-Za-z0-9_.-].
func badRune(s string) (rune, bool) {
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-' || r == '.') {
			return r, true
		}
	}
	return 0, false
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
// so the zero resolution is exactly Register. Every generation of the
// relation, compactions and restarts included, is built at it.
func (s *Store) RegisterResolution(name string, pts []geom.Point, res core.Resolution) (RelationStatus, error) {
	if err := validateName(name); err != nil {
		return RelationStatus{}, err
	}
	if len(pts) == 0 {
		return RelationStatus{}, fmt.Errorf("store: relation %q has no points", name)
	}
	if err := s.opt.checkPoints(pts, true); err != nil {
		return RelationStatus{}, fmt.Errorf("store: relation %q %w", name, err)
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
		// A lost entry's covered LSN stays pinned until this one publishes.
		if e = s.lost[name]; e == nil {
			e = &entry{name: name}
		}
	}
	if err := s.enqueueLocked(e, pts); err != nil {
		return RelationStatus{}, err
	}
	if isNew {
		s.entries[name] = e
		delete(s.lost, name)
	}
	// A user registration replaces base and deltas wholesale: pending
	// mutations are obsolete, and the publish registers everything logged so
	// far as covered. Until it publishes, a crash restores the registered
	// base, which needs the dropped deltas from the log.
	e.durableStale = e.durableStale || len(e.pending) > 0
	e.pending = nil
	e.ckptLSN = s.lastLSNLocked()
	e.isCompact = false
	e.res = res
	s.wakeLocked()
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
	stageLocked(e, pts)
	return nil
}

// stageLocked makes pts e's wanted generation; the caller queues its signal.
func stageLocked(e *entry, pts []geom.Point) {
	e.gen++
	e.pendingPts, e.pendingBase, e.pendingMuts = pts, nil, nil
	if e.state == StateBuilding && e.cancel != nil {
		e.cancel() // supersede the in-flight build
	}
	e.state = StateQueued
	e.err = ""
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
// re-registration of the same data rebuilds). A publish in progress, of this
// relation or any other, finishes first. In-flight estimates holding an
// older View keep working on the snapshot they resolved. It reports whether
// the relation existed.
func (s *Store) Drop(name string) bool {
	var trim uint64
	defer func() { s.trimWAL(trim) }() // runs after the unlocks below
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		e = s.lost[name]
	}
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
	delete(s.lost, name)
	s.republishLocked(name)
	s.notifyPublishLocked(name)
	if s.cache != nil {
		forgotten, err := s.cache.forget(name)
		if err != nil {
			s.opt.logger().Printf("store: updating cache registry after dropping %q: %v", name, err)
		}
		s.cache.sweep(forgotten...)
	}
	trim = s.walWatermarkLocked()
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

// List returns the current status of every relation, sorted by name:
// queued, building, ready and failed ones, and the ones a restart could not
// restore, listed as failed. The rows are read under s.mu, which a publish
// never holds across its file I/O, so a listing waits for no fsync and shows
// every change acknowledged before it.
func (s *Store) List() []RelationStatus {
	s.mu.Lock()
	rows := make([]RelationStatus, 0, len(s.entries)+len(s.lost))
	for _, e := range s.entries {
		rows = append(rows, e.statusLocked())
	}
	for _, e := range s.lost {
		rows = append(rows, e.statusLocked())
	}
	s.mu.Unlock()
	// The rows are copies, so they sort without holding up the writers.
	sort.Sort(statusesByName(rows))
	return rows
}

// statusesByName orders listing rows by name, comparing them where they lie.
type statusesByName []RelationStatus

func (r statusesByName) Len() int           { return len(r) }
func (r statusesByName) Less(i, j int) bool { return r[i].Name < r[j].Name }
func (r statusesByName) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }

// WaitReady blocks until every named relation is ready, any of them fails
// (the first failure is returned as an error), or ctx expires. With no
// names it waits for every relation known at call time.
func (s *Store) WaitReady(ctx context.Context, names ...string) error {
	return s.wait(ctx, false, names)
}

// wait is WaitReady and, with settle, WaitSettled.
func (s *Store) wait(ctx context.Context, settle bool, names []string) error {
	if len(names) == 0 {
		s.mu.Lock()
		for name := range s.entries {
			names = append(names, name)
		}
		s.mu.Unlock()
	}
	for {
		done, retry := true, false
		var failed error
		s.mu.Lock()
		if settle && s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		for _, name := range names {
			e := s.entries[name]
			if e == nil {
				failed = fmt.Errorf("store: relation %q is not registered", name)
				break
			}
			switch e.state {
			case StateReady:
				if e.publishing { // until the generation it replaced is retired
					done = false
				} else if settle && len(e.pending) > 0 {
					s.compactLocked(e)
					done = false
					// Still ready: the queue was full, and no View may come.
					retry = retry || e.state == StateReady
				}
			case StateFailed:
				failed = fmt.Errorf("store: building %q: %s", name, e.err)
			default:
				done = false
			}
			if failed != nil {
				break
			}
		}
		published := s.published
		s.mu.Unlock()
		if failed != nil {
			return failed
		}
		if done {
			return nil
		}
		var again <-chan time.Time
		if retry {
			again = time.After(2 * time.Millisecond)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-published:
		case <-again:
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
	s.wakeLocked() // a WaitSettled returns ErrClosed
	s.mu.Unlock()

	if s.stopCompact != nil {
		close(s.stopCompact)
		<-s.compactorDone
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
	// Workers are done publishing; seal the log. Any deltas still pending
	// stay in the WAL and replay on the next start.
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
	pts, base, muts := e.pendingPts, e.pendingBase, e.pendingMuts
	e.pendingBase, e.pendingMuts = nil, nil
	res := e.res
	ctx, cancel := context.WithCancel(s.ctx)
	e.cancel = cancel
	e.state = StateBuilding
	s.wakeLocked()
	s.mu.Unlock()

	var built *builtRelation
	var err error
	if base != nil {
		// A compaction reads its base here, off the lock.
		if pts, err = base.logicalPoints(muts); err == nil && len(pts) == 0 {
			err = errEmptyFold
		}
	}
	if err == nil {
		built, err = s.buildCatalogs(ctx, name, pts, res)
	}
	cancelled := ctx.Err() != nil
	cancel()
	if s.opt.crashHook != nil {
		s.opt.crashHook("built") // the bundle is on disk and nothing names it yet
	}

	s.mu.Lock()
	cur, lead := s.entries[name], false
	current := cur != nil && cur.gen == gen
	if current {
		cur.cancel = nil
	}
	switch {
	case current && errors.Is(err, errEmptyFold):
		cur.state = StateReady // the deltas stay pending, the snapshot serves
		s.wakeLocked()
		s.opt.logger().Printf("store: compaction of %q would delete every point; deltas stay pending", name)
	case current && err != nil:
		if cancelled {
			err = fmt.Errorf("build cancelled: %w", err)
		}
		cur.state = StateFailed
		cur.err = err.Error()
		cur.pendingPts = nil // nothing builds from them again: a retry is a new registration or a compaction
		s.wakeLocked()
		s.opt.logger().Printf("store: building %q: %v", name, err)
	case built != nil: // one dropped or superseded meanwhile is discarded when its group forms
		s.finished = append(s.finished, &member{name: name, gen: gen, b: built})
		lead, s.leading = !s.leading, true
	}
	s.mu.Unlock()
	// The worker that finds no leader leads: it publishes, at once and from
	// the goroutine that is already running, until no build is left waiting;
	// one that finds a leader goes back to building.
	for lead && s.publish() {
	}
}

// errEmptyFold is a compaction whose deletes leave no point: a relation
// cannot shrink to zero points, so it is not built.
var errEmptyFold = errors.New("the fold would delete every point")

// builtRelation carries a finished per-relation build, or a bundle's load,
// from the worker into the publish step.
type builtRelation struct {
	tree *index.Tree // the Count-Index
	engine.Artifacts
	pts  []geom.Point    // registration-order source points; nil for a restore, garbage once published
	fp   string          // fingerprint of pts at res
	res  core.Resolution // the resolution the artifacts were built at
	file *os.File        // the bundle a load opened, which the snapshot keeps; nil for a build
}

// buildCatalogs constructs (or cache-loads) every per-relation estimator
// at the given resolution. It runs without any store lock, and with a cache
// directory it builds a fingerprint only under that fingerprint's claim
// (diskCache.claim), so stores sharing the directory build it once; ctx
// aborts it between stages and while it waits for the claim.
func (s *Store) buildCatalogs(ctx context.Context, name string, pts []geom.Point, res core.Resolution) (*builtRelation, error) {
	res = res.Canon()
	fp := s.fingerprint(pts, res)
	if s.cache != nil {
		b, err := s.loadBundle(fp, res)
		if err != nil {
			// Another store on the directory, or another worker of this one,
			// may be building fp right now: its claim makes this build wait
			// for that one, and once held, the cache is looked in again. The
			// claim is released when this function returns: after the
			// bundle is on disk, before the publish.
			release, cerr := s.cache.claim(ctx, fp)
			defer release()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cerr == nil {
				b, err = s.loadBundle(fp, res)
			}
		}
		if err == nil {
			b.pts = pts
			return &b, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.opt.logger().Printf("store: cache load %s: %v (rebuilding)", shortFP(fp), err)
		}
	}
	bounds, ok := s.opt.fixedBounds()
	if !ok {
		bounds = boundsOf(pts)
	}
	b := &builtRelation{pts: pts, res: res, fp: fp}
	// The data index lives for the build only: Procedure 1 browses it, and
	// what is published is its Count-Index.
	data := quadtree.Build(pts, quadtree.Options{
		Capacity: s.opt.IndexCapacity,
		Bounds:   bounds,
	})
	b.tree = data.CountTree()
	if b.tree.NumBlocks() == 0 {
		return nil, fmt.Errorf("relation %q indexed to zero blocks", name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The density estimator and the AkNN summary read only the index's
	// bounds and counts: neither is cached nor counted as a catalog build.
	b.Density = core.NewDensityBased(b.tree)
	b.Aknn = aknn.BuildSummaryCapacity(b.tree, res.AknnCapacity)
	stair, err := core.BuildStaircase(b.tree, core.StaircaseOptions{
		MaxK:     res.MaxK,
		Mode:     res.StaircaseMode(),
		Fallback: b.Density,
		Data:     data,
	})
	if err != nil {
		return nil, fmt.Errorf("staircase: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.Staircase = stair
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vg, err := core.BuildVirtualGrid(b.tree, res.GridSize, res.GridSize, res.MaxK)
	if err != nil {
		return nil, fmt.Errorf("virtual grid: %w", err)
	}
	s.catalogBuilds.Add(1)
	b.VGrid = vg
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

// loadBundle loads the bundle of fp at res, for a restore or a registration
// whose points the cache has seen: it builds nothing, decodes no point and
// refuses a bundle whose points do not hash to fp or whose options differ.
// The file it opens is the one the snapshot keeps.
func (s *Store) loadBundle(fp string, res core.Resolution) (b builtRelation, err error) {
	f, err := os.Open(s.cache.bundlePath(fp))
	if err != nil {
		return b, err
	}
	h := s.fingerprintHash(res)
	size, err := f.Seek(0, io.SeekEnd) // the size, without the FileInfo a Stat allocates
	var man manifest
	if err == nil {
		b, man, err = readBundle(f, size, h)
	}
	switch {
	case err != nil:
	case !sumsTo(h, fp):
		err = errors.New("bundle: its points do not hash to its fingerprint")
	case man != s.manifestFor(b.tree, res):
		err = errors.New("bundle: built with other options")
	}
	if err != nil {
		f.Close()
		return builtRelation{}, err
	}
	s.cacheHits.Add(2) // staircase + virtual grid
	b.Aknn, b.fp, b.res, b.file = aknn.BuildSummaryCapacity(b.tree, res.AknnCapacity), fp, res, f
	return b, nil
}

// storeBundle writes b's bundle: points and artifacts, built or cache-loaded,
// encode to the same bytes.
func (s *Store) storeBundle(b *builtRelation) error {
	data := encodeBundle(s.manifestFor(b.tree, b.res), b.pts, b.tree, b.Staircase, b.VGrid)
	return s.cache.writeFile("bundle", s.cache.bundlePath(b.fp), data)
}

func (s *Store) manifestFor(tree *index.Tree, res core.Resolution) manifest {
	return manifest{
		NumPoints:    int64(tree.NumPoints()),
		NumBlocks:    int64(tree.NumBlocks()),
		MaxK:         int64(res.MaxK),
		Corners:      int64(res.Corners),
		SampleSize:   int64(s.opt.SampleSize),
		GridSize:     int64(res.GridSize),
		AknnCapacity: int64(res.AknnCapacity),
		Capacity:     int64(s.opt.IndexCapacity),
	}
}

// member is one finished build on its way to publication. The worker sets
// name, gen and b; its group sets the rest.
type member struct {
	name    string
	gen     uint64
	b       *builtRelation
	e       *entry
	covered uint64 // e.ckptLSN for gen: the highest LSN the build folds in
	compact bool
	durable bool // the registry names b.fp at covered
}

// publish publishes, as one group, every build that has finished by the
// time it holds pubMu, and reports whether there was one: the leader calls
// it until none is left. A group linearises when it forms: its
// generations publish even if re-registered while they persist, and one
// dropped or superseded before is discarded, with the bundle it wrote. Per
// relation the durable order is DESIGN §12's; a group shares one log commit,
// one registry write and one View. s.mu is held to form the group and to
// install it, never across file I/O.
func (s *Store) publish() bool {
	var trim uint64
	defer func() { s.trimWAL(trim) }() // runs after pubMu is released
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.mu.Lock()
	if len(s.finished) == 0 {
		s.leading = false
		s.mu.Unlock()
		return false
	}
	var group []*member
	var dead []string
	for _, m := range s.finished {
		if e := s.entries[m.name]; e != nil && e.gen == m.gen {
			m.e, m.covered, m.compact = e, e.ckptLSN, e.isCompact
			e.publishing = true
			group = append(group, m)
		} else if s.cache != nil {
			dead = append(dead, m.b.fp) // nothing will register it
		}
	}
	s.finished = nil
	s.mu.Unlock()
	if len(dead) > 0 {
		s.cache.sweep(dead...)
	}
	if len(group) == 0 {
		return true
	}
	var replaced []string
	if s.cache != nil { // before the View: ready implies restorable
		replaced = s.persist(group)
	}
	s.mu.Lock()
	trim = s.installLocked(group)
	s.mu.Unlock()
	// A replaced generation goes once syncRegistry has made the registry
	// that no longer names it durable, with every bundle it names: until
	// then a power loss may bring back the registry that does. Should an
	// fsync fail, the sweep is left to the next start's.
	if len(replaced) > 0 {
		if err := s.cache.syncRegistry(); err != nil {
			s.opt.logger().Printf("store: not sweeping %d replaced generations: %v", len(replaced), err)
		} else {
			s.cache.sweep(replaced...)
		}
	}
	s.mu.Lock()
	for _, m := range group {
		m.e.publishing = false
	}
	s.wakeLocked()
	s.mu.Unlock()
	return true
}

// persist makes each member's build the durable base of its relation, under
// pubMu alone. Order: make sure its bundle is on disk, and hold it open in
// b.file — the snapshot reads its points from it — then make it durable,
// when it replaces a generation; make the log durable through the highest
// LSN a member folds in; and only then let one registry write adopt each
// member's fingerprint and covered LSN. A crash anywhere in this sequence
// replays the log above the old entry or above the new one, and a power loss
// finds whichever registry survives naming bundles that did. All of it runs
// under the cache directory's lock, shared: no store on the directory can
// sweep between the moment a bundle is seen on disk and the moment the
// registry names it. A member whose step fails is served but keeps the
// previous entry registered and the log pinned; a failure past the open
// keeps the file: it holds the snapshot's points whatever the registry
// names, and a sweep's unlink leaves it readable. It returns the
// fingerprints the registry stopped naming.
func (s *Store) persist(group []*member) (replaced []string) {
	release, _ := s.cache.lock(false) // unobtainable only where no sweep can run either
	defer release()
	var ok []*member
	var puts []registryEntry
	var covered uint64
	for _, m := range group {
		// buildCatalogs wrote the bundle, or loaded it, some time ago and
		// without the lock. Since then a sweep may have taken it: a peer's,
		// for which it was a dead generation not yet named here, or this
		// store's own, when a relation returns to a fingerprint it has just
		// left. The build still holds everything the file held.
		b, e := m.b, m.e // e.durableFP changes under pubMu only
		path := s.cache.bundlePath(b.fp)
		_, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) {
			err = s.storeBundle(b)
		}
		if err == nil && b.file == nil {
			b.file, err = os.Open(path)
		}
		// The previous generation is swept once the registry stops naming
		// it, so the new bundle must be durable before the registry may.
		if err == nil && e.durableFP != "" && e.durableFP != b.fp {
			err = s.cache.syncBundle(b.fp)
		}
		if err != nil {
			s.persistFailures.Add(1)
			s.opt.logger().Printf("store: persisting %q: %v (serving it, registry not updated)", m.name, err)
			continue
		}
		ok = append(ok, m)
		puts = append(puts, registryEntry{Name: m.name, Fingerprint: b.fp, Resolution: b.res, Covered: m.covered})
		covered = max(covered, m.covered)
	}
	// The log must not lose a record a registered covered LSN names: the
	// next start would number new records from its end. A mutation is
	// fsynced before it is acknowledged, so this waits only for one in flight.
	if err := s.wal.Commit(covered); err != nil {
		s.persistFailures.Add(1)
		s.opt.logger().Printf("store: syncing the log through LSN %d: %v (registry not updated)", covered, err)
		return nil
	}
	replaced, err := s.cache.remember(puts, "")
	if err != nil {
		s.persistFailures.Add(1)
		s.opt.logger().Printf("store: updating cache registry: %v", err)
		return nil
	}
	for _, m := range ok {
		m.durable = true
	}
	return replaced
}

// installLocked publishes a persisted group: each member's snapshot, durable
// state and folded deltas, then one View, then the publish hooks. A member
// re-registered while it persisted is installed all the same, but its
// relation stays queued for the newer generation and the log pinned at the
// persisted covered LSN until that one publishes. It returns the WAL
// watermark for the caller to trim to once the locks are released.
func (s *Store) installLocked(group []*member) (trim uint64) {
	for _, m := range group {
		e, current := m.e, m.e.gen == m.gen
		if s.cache != nil {
			if m.durable {
				e.durableFP, e.durableCovered = m.b.fp, m.covered
			}
			e.durableStale = !m.durable || !current
		}
		// Deltas this build folded in are acknowledged by the snapshot now;
		// anything logged after the fold stays pending for the next round.
		e.pending = filterCovered(e.pending, m.covered)
		s.installSnapshot(e, m.b)
		m.b = nil // the snapshot holds what it serves; the build's points go now, not after the retire
		if current {
			e.state, e.err, e.pendingPts = StateReady, "", nil
		}
		if m.compact {
			s.compactions.Add(1)
		}
	}
	names := make([]string, len(group))
	for i, m := range group {
		names[i] = m.name
	}
	s.republishLocked(names...)
	for _, m := range group {
		s.notifyPublishLocked(m.name)
		// Deltas that arrived while the build ran (or were replayed at
		// startup) are still pending: fold them in the next round.
		if m.e.state == StateReady && len(m.e.pending) > 0 {
			s.compactLocked(m.e)
		}
	}
	return s.walWatermarkLocked()
}

// installSnapshot makes b e's next snapshot, its points in b's bundle or
// memory. A restore calls it alone: its bundle is durable and registered
// already. Caller holds s.mu.
func (s *Store) installSnapshot(e *entry, b *builtRelation) {
	version := uint64(1)
	if e.snap != nil {
		version = e.snap.Version + 1
	}
	sn := &Snapshot{
		Name:           e.name,
		Version:        version,
		Fingerprint:    b.fp,
		Tree:           b.tree,
		Count:          b.tree,
		Artifacts:      b.Artifacts,
		Resolution:     b.res,
		StaircaseBytes: b.Staircase.StorageBytes(),
		VGridBytes:     b.VGrid.StorageBytes(),
		AknnBytes:      b.Aknn.StorageBytes(),
		file:           b.file,
		s:              s,
	}
	if sn.file == nil {
		sn.mem = appendPoints(make([]byte, 0, pointsSize(len(b.pts))), b.pts)
	}
	// The engine serves the artifacts this build already produced (or
	// cache-loaded), so technique resolution never rebuilds what the store
	// has: these exact objects, bit for bit.
	sn.Engine = engine.NewCountRelation(e.name, b.tree, sn.Hydrate,
		engine.BuildOptions{Resolution: b.res, SampleSize: s.opt.SampleSize}, b.Artifacts)
	e.snap = sn
}

// wakeLocked wakes every WaitReady and WaitSettled.
func (s *Store) wakeLocked() {
	close(s.published)
	s.published = make(chan struct{})
}

// republishLocked swaps in the next View if the published snapshot of one
// of names changed, and wakes the waits either way. A View is immutable, so
// the next one clones and patches the relations map, and its pair table
// starts over with the slots — resolved, failed or in flight — whose two
// snapshots are both still published.
func (s *Store) republishLocked(names ...string) {
	old := s.view.Load()
	var relations map[string]*Snapshot
	for _, name := range names {
		var snap *Snapshot
		if e := s.entries[name]; e != nil {
			snap = e.snap
		}
		if snap == old.relations[name] {
			continue
		}
		if relations == nil {
			relations = maps.Clone(old.relations)
		}
		if relations[name] = snap; snap == nil {
			delete(relations, name)
		}
	}
	if relations != nil {
		v := &View{relations: relations, pairs: new(sync.Map), store: s}
		old.pairs.Range(func(key, slot any) bool {
			if p := key.(pairKey); relations[p[0].Name] == p[0] && relations[p[1].Name] == p[1] {
				v.pairs.Store(key, slot)
			}
			return true
		})
		s.view.Store(v)
	}
	s.wakeLocked()
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
		st.Resolution = e.snap.Resolution
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
	r := geom.BoundsOf(pts)
	w, h := cmp.Or(r.Width(), 1), cmp.Or(r.Height(), 1)
	r.Min.X -= w * 0.001
	r.Min.Y -= h * 0.001
	r.Max.X += w * 0.001
	r.Max.Y += h * 0.001
	return r
}

func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
