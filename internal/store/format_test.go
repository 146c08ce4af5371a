package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
)

// TestFormatFourCacheMissesCleanly: a cache directory written by the
// previous on-disk format (4: a directory of per-artifact files per
// fingerprint, one merge file per ordered pair) must behave as a clean miss
// under the current format — the store cold-starts without error, re-registration
// rebuilds (knncost_catalog_builds increments), and the fresh bundle lands
// beside the stale directory.
func TestFormatFourCacheMissesCleanly(t *testing.T) {
	dir := t.TempDir()
	staleFP := strings.Repeat("ab", 32)

	// Hand-write what a format-4 cache left behind: its registry, an
	// artifact directory with its manifest, and a pair-merge file. None of
	// it is read any more.
	for _, sub := range []string{filepath.Join("cat", staleFP), "merge"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := json.Marshal(map[string]any{
		"format": 4,
		"relations": []map[string]any{
			{"name": "legacy", "fingerprint": staleFP},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), reg, 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(map[string]any{"format": 4, "num_points": 900, "max_k": 64})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		filepath.Join("cat", staleFP, "manifest.json"):                                 man,
		filepath.Join("cat", staleFP, "points.bin"):                                    []byte("KNPT\x01garbage"),
		filepath.Join("cat", staleFP, engine.TechStaircaseCC+".bin"):                   []byte("KNCSMAP\x01stale"),
		filepath.Join("cat", staleFP, engine.TechVirtualGrid+".bin"):                   []byte("KNVGMAP\x01stale"),
		filepath.Join("cat", staleFP, engine.TechAknnBounds+".bin"):                    []byte("KNAB\x01junk"),
		filepath.Join("merge", staleFP+"-"+staleFP+"-"+engine.TechCatalogMerge+".bin"): []byte("KNCMMAP\x01stale"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	opt := testOptions(t)
	opt.CacheDir = dir
	s := newTestStore(t, opt)
	waitReady(t, s) // a format-4 registry restores nothing
	if n := s.View().NumRelations(); n != 0 {
		t.Fatalf("format-4 registry restored %d relations, want 0", n)
	}

	if _, err := s.Register("legacy", gridPoints(900, 7)); err != nil {
		t.Fatalf("Register over a format-4 cache: %v", err)
	}
	waitReady(t, s, "legacy")
	if s.CatalogBuilds() == 0 {
		t.Fatal("re-registration over a format-4 cache served stale artifacts instead of rebuilding")
	}
	snap := s.View().Relation("legacy")
	if _, err := os.Stat(filepath.Join(dir, "cat", snap.Fingerprint+".knc")); err != nil {
		t.Fatalf("no bundle written beside the format-4 directory: %v", err)
	}
	if _, err := snap.Staircase.EstimateSelect(geom.Point{X: 40, Y: 40}, 9); err != nil {
		t.Fatalf("estimate after format migration: %v", err)
	}
	if snap.Resolution.MaxK != opt.MaxK || snap.Resolution.GridSize != opt.GridSize {
		t.Fatalf("rebuilt resolution %+v does not carry the store defaults (maxk %d, grid %d)",
			snap.Resolution, opt.MaxK, opt.GridSize)
	}
}

// TestFormatFiveCacheMissesCleanly: testdata/format5 is a cache directory
// the previous format's store wrote (24-byte catalog entries, KNAB\x01):
// two relations under testOptions — gridPoints(200, 7) as "legacy",
// gridPoints(150, 8) as "peer" — one demanded pair merge, its WAL. Under
// the current format it is a clean miss: no error, nothing restored, the
// registry moved aside (which keeps the old files from ever being swept),
// and a re-registration of the same points builds and writes its bundle
// beside them — even when an old bundle sits at the very path the new
// fingerprint names.
func TestFormatFiveCacheMissesCleanly(t *testing.T) {
	dir := t.TempDir()
	if err := copyTree(filepath.Join("testdata", "format5"), dir); err != nil {
		t.Fatal(err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "cat", "*.kn[cm]"))
	if err != nil || len(old) != 3 {
		t.Fatalf("fixture holds %d bundle and side files (%v), want 3", len(old), err)
	}

	opt := testOptions(t)
	opt.CacheDir = dir
	s := newTestStore(t, opt)
	waitReady(t, s) // a format-5 registry restores nothing
	if n := s.View().NumRelations(); n != 0 {
		t.Fatalf("format-5 registry restored %d relations, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "registry.json.bad")); err != nil {
		t.Fatalf("format-5 registry was not moved aside: %v", err)
	}

	// The hostile spelling of the same miss: the old bundle's bytes under
	// the name the new format will look for.
	pts := gridPoints(200, 7)
	fp := s.fingerprint(pts, s.opt.resolveResolution(core.Resolution{}))
	for _, path := range old {
		if strings.HasSuffix(path, fp+".knc") {
			t.Fatalf("the format-6 fingerprint %s equals a format-5 one", fp)
		}
	}
	stale, err := os.ReadFile(old[0])
	if err != nil || !strings.HasSuffix(old[0], ".knc") || string(stale[:8]) != "KNCBNDL\x05" {
		t.Fatalf("%s is not a format-5 bundle (%v)", old[0], err)
	}
	if _, err := decodeBundle(stale); err == nil {
		t.Fatal("a format-5 bundle decoded")
	}
	planted := filepath.Join(dir, "cat", fp+".knc")
	if err := os.WriteFile(planted, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Register("legacy", pts); err != nil {
		t.Fatalf("Register over a format-5 cache: %v", err)
	}
	if _, err := s.Register("peer", gridPoints(150, 8)); err != nil {
		t.Fatalf("Register over a format-5 cache: %v", err)
	}
	waitReady(t, s, "legacy", "peer")
	if s.CatalogBuilds() == 0 || s.CacheHits() != 0 {
		t.Fatalf("re-registration over a format-5 cache: %d builds, %d cache hits; want builds and no hit", s.CatalogBuilds(), s.CacheHits())
	}
	snap := s.View().Relation("legacy")
	if snap.Fingerprint != fp {
		t.Fatalf("published fingerprint %s, computed %s", snap.Fingerprint, fp)
	}
	fresh, err := os.ReadFile(planted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBundle(fresh); err != nil {
		t.Fatalf("the bundle at the new fingerprint was not rewritten in the current format: %v", err)
	}
	if s.View().Merge("legacy", "peer") == nil {
		t.Fatal("pair merge unavailable after the rebuild")
	}
	if _, err := snap.Staircase.EstimateSelect(geom.Point{X: 40, Y: 1}, 9); err != nil {
		t.Fatalf("estimate after format migration: %v", err)
	}
	for _, path := range old {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("old file swept while its registry.json.bad is there: %v", err)
		}
	}
	closeStore(t, s)

	// The directory is now an ordinary current-format one.
	warm := newTestStore(t, opt)
	waitReady(t, warm, "legacy", "peer")
	if n := warm.CatalogBuilds(); n != 0 {
		t.Fatalf("restart after the migration built %d catalogs, want 0", n)
	}
}
