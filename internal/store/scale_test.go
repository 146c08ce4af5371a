package store

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"knncost/internal/aknn"
	"knncost/internal/core"
	"knncost/internal/geom"
	"knncost/internal/index"
	"knncost/internal/quadtree"
)

// TestCatalogScale measures the cache read path at fleet scale: N small
// relations are built once and persisted as bundles, then the cache is
// re-opened and every relation warm-loaded, exactly the way a restarted
// daemon re-hydrates its schema. The test asserts bit-identical estimates
// across the round trip with zero artifact builds, and that the warm-loaded
// set is no more resident than the same set built on the heap, give or take
// twice the bytes read — restore cost proportional to live bytes, not to
// file count (a page per mapped file, as format 4 cost, is 8 KB a relation
// and fails this from a few thousand relations up). It logs the numbers
// DESIGN.md records: warm-load wall time, RSS and heap growth.
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
	dir := t.TempDir()
	cache, err := openDiskCache(dir, "", log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("openDiskCache: %v", err)
	}
	res := core.Resolution{MaxK: 64, GridSize: 4}.Canon()
	opt := core.StaircaseOptions{MaxK: res.MaxK, Mode: res.StaircaseMode()}

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
		tree := quadtree.Build(pts, quadtree.Options{Capacity: 16}).Index()
		count := tree.CountTree()
		stair, err := core.BuildStaircase(tree, opt)
		if err != nil {
			t.Fatalf("BuildStaircase %d: %v", i, err)
		}
		vg, err := core.BuildVirtualGrid(count, res.GridSize, res.GridSize, res.MaxK)
		if err != nil {
			t.Fatalf("BuildVirtualGrid %d: %v", i, err)
		}
		sum := aknn.BuildSummaryCapacity(count, res.AknnCapacity)
		fp := fmt.Sprintf("%064x", i)
		if err := cache.storeBundle(fp, manifest{}, pts, stair, vg, sum); err != nil {
			t.Fatalf("storeBundle %d: %v", i, err)
		}
		fps[i] = fp
		built[i] = loaded{stair, vg, sum}
		want[i] = probeAll(t, pts, stair, vg, sum, count)
		artifactBytes += int64(stair.SizeBytes() + vg.SizeBytes() + sum.SizeBytes())
		pointBytes += int64(16 * len(pts))
	}
	buildTook := time.Since(buildStart)
	runtime.GC()
	debug.FreeOSMemory()
	rssBuilt := vmRSS() // heap-built artifacts resident

	// Drop every built artifact before measuring the warm path, so RSS and
	// heap growth attribute to the loads alone.
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
		reg.Relations = append(reg.Relations, registryEntry{Name: fmt.Sprintf("r%d", i), Fingerprint: fp, Resolution: res, Declared: res})
	}
	regData, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.registryPath(), regData, 0o644); err != nil {
		t.Fatal(err)
	}
	cache2, err := openDiskCache(dir, "", log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sweepStart := time.Now()
	cache2.sweepAll()
	sweepTook := time.Since(sweepStart)
	if swept := cache2.sweptFiles.Load(); swept != 0 || len(cache2.registry()) != n {
		t.Fatalf("start-up sweep over %d registered bundles removed %d files (registry restored %d)", n, swept, len(cache2.registry()))
	}
	keep := make([]loaded, n) // a daemon keeps every relation resident
	warmStart := time.Now()
	for i := 0; i < n; i++ {
		bd, err := cache2.loadBundle(fps[i])
		if err != nil {
			t.Fatalf("loadBundle %d: %v", i, err)
		}
		pts := bd.pts
		tree := quadtree.Build(pts, quadtree.Options{Capacity: 16}).Index()
		count := tree.CountTree()
		stair, err := core.LoadStaircaseMapped(tree, bd.stair, opt)
		if err != nil {
			t.Fatalf("LoadStaircaseMapped %d: %v", i, err)
		}
		keep[i] = loaded{stair, bd.vgrid, bd.aknn}
		if got := probeAll(t, pts, stair, bd.vgrid, bd.aknn, count); got != want[i] {
			t.Fatalf("relation %d not bit-identical after warm load: got %+v, want %+v", i, got, want[i])
		}
	}
	warmTook := time.Since(warmStart)
	runtime.GC()
	debug.FreeOSMemory()
	rss1, heap1 := vmRSS(), heapAlloc()
	runtime.KeepAlive(keep)

	t.Logf("relations=%d artifact_bytes=%.1fMB build=%v startup_sweep=%v warm_load=%v (%.1fµs/relation)",
		n, float64(artifactBytes)/(1<<20), buildTook.Round(time.Millisecond), sweepTook.Round(10*time.Microsecond),
		warmTook.Round(time.Millisecond), float64(warmTook.Microseconds())/float64(n))
	t.Logf("rss: built=%.1fMB warm=%.1fMB (growth rss=%+.1fMB heap=%+.1fMB; loaded artifacts %.1fMB + points %.1fMB)",
		float64(rssBuilt)/(1<<20), float64(rss1)/(1<<20),
		float64(rss1-rss0)/(1<<20), float64(heap1-heap0)/(1<<20),
		float64(artifactBytes)/(1<<20), float64(pointBytes)/(1<<20))
	// Both sets hold the same indexes (tree, point-location grid), which at
	// these relation sizes outweigh the catalogs; 4 MB is allocator slack.
	if limit := (rssBuilt - rssStart) + 2*(artifactBytes+pointBytes) + 4<<20; rss0 > 0 && rss1-rss0 > limit {
		t.Errorf("warm RSS grew %.1fMB, want at most the built set's %.1fMB + 2 × %.1fMB read + 4MB",
			float64(rss1-rss0)/(1<<20), float64(rssBuilt-rssStart)/(1<<20), float64(artifactBytes+pointBytes)/(1<<20))
	}
}

// probeAll pins all three cached artifacts of one relation with a
// deterministic estimate each; bit-identity of the triple across a reload
// means the borrowed catalogs decode to the exact built values.
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
