package store

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
)

// TestCatalogScale measures the restore path at fleet scale: N small
// relations are built once and persisted as bundles, then a store is started
// over the cache directory, exactly the way a restarted daemon re-hydrates
// its schema: each relation published from its bundle's Count-Index and two
// catalog sections, the AkNN summary rebuilt from the Count-Index, no build
// job queued. The test asserts that every relation is served, with zero
// catalog builds and two cache hits each, and bit-identical estimates across
// the round trip, and that the restored set is no more resident than the
// same set built on the heap, give or take twice the bytes read — restore
// cost proportional to live bytes, not to file count (a page per mapped
// file, as format 4 cost, is 8 KB a relation and fails this from a few
// thousand relations up). It logs the numbers DESIGN.md records: the
// restore's wall time per relation, RSS and heap growth, and the open
// descriptors the restored store holds.
//
// KNNCOST_SCALE_RELATIONS overrides the relation count; scripts/check.sh
// drives it at 2000, DESIGN.md §15 records 100k.
func TestCatalogScale(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	if s := os.Getenv("KNNCOST_SCALE_RELATIONS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("KNNCOST_SCALE_RELATIONS=%q: want a positive integer", s)
		}
		n = v
	}
	opt := Options{MaxK: 64, GridSize: 4, IndexCapacity: 16, CacheDir: t.TempDir(), CompactInterval: -1,
		Logger: log.New(io.Discard, "", 0)}
	origin := newTestStore(t, opt)
	res := origin.opt.resolveResolution(core.Resolution{})

	relPoints := func(i int) []geom.Point {
		return gridPoints(16+i%17, int64(i))
	}

	type loaded struct {
		stair *core.Staircase
		vg    *core.VirtualGrid
		sum   *aknn.Summary
	}
	fps := make([]string, n)
	want := make([][3]float64, n)
	built := make([]loaded, n)
	var artifactBytes, pointBytes int64

	runtime.GC()
	debug.FreeOSMemory()
	rssStart := vmRSS()
	buildStart := time.Now()
	for i := 0; i < n; i++ {
		pts := relPoints(i)
		b, err := origin.buildCatalogs(context.Background(), fmt.Sprintf("r%d", i), pts, res)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		fps[i] = b.fp
		built[i] = loaded{b.Staircase, b.VGrid, b.Aknn}
		want[i] = probeAll(t, pts, b.Staircase, b.VGrid, b.Aknn, b.tree)
		artifactBytes += int64(b.Staircase.StorageBytes() + b.VGrid.StorageBytes() + b.Aknn.StorageBytes())
		pointBytes += int64(16 * len(pts))
	}
	buildTook := time.Since(buildStart)
	closeStore(t, origin)
	runtime.GC()
	debug.FreeOSMemory()
	rssBuilt := vmRSS() // heap-built artifacts resident

	// Drop every built artifact before measuring the restore, so RSS and
	// heap growth attribute to it alone.
	for i := range built {
		built[i] = loaded{}
	}
	runtime.GC()
	debug.FreeOSMemory()
	rss0, heap0 := vmRSS(), heapAlloc()

	// The registry a daemon would have written, in one write. The start-up
	// sweep lists all of cat/ against it on the restart path, so its time is
	// reported, and with every bundle named it must remove nothing.
	reg := registryFile{Format: cacheFormat}
	for i, fp := range fps {
		reg.Relations = append(reg.Relations, registryEntry{Name: fmt.Sprintf("r%d", i), Fingerprint: fp, Resolution: res})
	}
	regData, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := openDiskCache(opt.CacheDir, "", opt.Logger)
	if err != nil {
		t.Fatalf("openDiskCache: %v", err)
	}
	if err := os.WriteFile(cache.registryPath(), regData, 0o644); err != nil {
		t.Fatal(err)
	}
	if cache, err = openDiskCache(opt.CacheDir, "", opt.Logger); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sweepStart := time.Now()
	cache.sweepAll()
	sweepTook := time.Since(sweepStart)
	if swept := cache.sweptFiles.Load(); swept != 0 || len(cache.registry()) != n {
		t.Fatalf("start-up sweep over %d registered bundles removed %d files (registry restored %d)", n, swept, len(cache.registry()))
	}

	restoreStart := time.Now()
	s := newTestStore(t, opt) // a daemon keeps every relation resident
	waitReady(t, s)
	restoreTook := time.Since(restoreStart)
	if got, b, h := s.View().NumRelations(), s.CatalogBuilds(), s.CacheHits(); got != n || b != 0 || h != int64(2*n) {
		t.Fatalf("the restart serves %d of %d relations after %d catalog builds and %d cache hits, want all of them, 0 and %d", got, n, b, h, 2*n)
	}
	for i := 0; i < n; i++ {
		snap := s.View().Relation(fmt.Sprintf("r%d", i))
		if got := probeAll(t, relPoints(i), snap.Staircase, snap.VGrid, snap.Aknn, snap.Tree); got != want[i] {
			t.Fatalf("relation %d not bit-identical after the restore: got %+v, want %+v", i, got, want[i])
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	rss1, heap1 := vmRSS(), heapAlloc()

	t.Logf("relations=%d artifact_bytes=%.1fMB build=%v startup_sweep=%v restore=%v (%.1fµs/relation)",
		n, float64(artifactBytes)/(1<<20), buildTook.Round(time.Millisecond), sweepTook.Round(10*time.Microsecond),
		restoreTook.Round(time.Millisecond), float64(restoreTook.Microseconds())/float64(n))
	t.Logf("rss: built=%.1fMB restored=%.1fMB (growth rss=%+.1fMB heap=%+.1fMB; loaded artifacts %.1fMB + points %.1fMB)",
		float64(rssBuilt)/(1<<20), float64(rss1)/(1<<20),
		float64(rss1-rss0)/(1<<20), float64(heap1-heap0)/(1<<20),
		float64(artifactBytes)/(1<<20), float64(pointBytes)/(1<<20))
	if fds := openFDs(); fds >= 0 {
		t.Logf("open descriptors after the restore: %d", fds)
	}
	// Both sets hold the same indexes (tree, point-location grid), which at
	// these relation sizes outweigh the catalogs; 4 MB is allocator slack.
	if limit := (rssBuilt - rssStart) + 2*(artifactBytes+pointBytes) + 4<<20; rss0 > 0 && rss1-rss0 > limit {
		t.Errorf("restored RSS grew %.1fMB, want at most the built set's %.1fMB + 2 × %.1fMB read + 4MB",
			float64(rss1-rss0)/(1<<20), float64(rssBuilt-rssStart)/(1<<20), float64(artifactBytes+pointBytes)/(1<<20))
	}
}

// probeAll pins the three artifacts of one relation with a deterministic
// estimate each; bit-identity of the triple across a reload means the
// cached catalogs decode to the exact built values and the rebuilt summary
// is the one built.
func probeAll(t *testing.T, pts []geom.Point, stair *core.Staircase, vg *core.VirtualGrid, sum *aknn.Summary, count *index.Tree) [3]float64 {
	t.Helper()
	sel, err := stair.EstimateSelect(pts[0], 7)
	if err != nil {
		t.Fatalf("EstimateSelect: %v", err)
	}
	vj, err := vg.Bind(count).EstimateJoin(5)
	if err != nil {
		t.Fatalf("virtual-grid EstimateJoin: %v", err)
	}
	aj, err := sum.Bind(count, 8).EstimateJoin(5)
	if err != nil {
		t.Fatalf("aknn EstimateJoin: %v", err)
	}
	return [3]float64{sel, vj, aj}
}

// openFDs counts this process's open descriptors, the entries of
// /proc/self/fd, or returns -1 where procfs is unavailable.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// vmRSS reads the resident set size from /proc/self/status, in bytes.
// Returns 0 where procfs is unavailable; the RSS assertion is then skipped.
func vmRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if after, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(after), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

func heapAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkRegisterToReady records register→ready per relation as the
// store grows (ROADMAP item 3): relations of 1k points, registered by a
// sequential client in batches of 100, each batch waited ready before the
// next, into a store with a cache directory and two build workers. It
// reports the batch's time per relation for the batches that take the store
// to 100, 400 and 1,600 relations; a flat row means a publish costs the same
// however many relations the store holds. It records and asserts nothing.
func BenchmarkRegisterToReady(b *testing.B) {
	const batch = 100
	sizes := []int{100, 400, 1600}
	perRelation := map[int]float64{}
	for i := 0; i < b.N; i++ {
		s, err := New(Options{Workers: 2, CacheDir: b.TempDir(), CompactInterval: -1, Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		for n := batch; n <= sizes[len(sizes)-1]; n += batch {
			names := make([]string, 0, batch)
			start := time.Now()
			for j := n - batch; j < n; j++ {
				name := fmt.Sprintf("r%d", j)
				if _, err := s.Register(name, gridPoints(1000, int64(j))); err != nil {
					b.Fatal(err)
				}
				names = append(names, name)
			}
			if err := s.WaitReady(ctx, names...); err != nil {
				b.Fatal(err)
			}
			if slices.Contains(sizes, n) {
				perRelation[n] += float64(time.Since(start).Microseconds()) / 1e3 / batch
			}
		}
		cancel()
		s.Close(context.Background())
	}
	for _, n := range sizes {
		b.ReportMetric(perRelation[n]/float64(b.N), fmt.Sprintf("ms/rel@%d", n))
	}
}
