package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knncost/internal/engine"
	"knncost/internal/geom"
)

// TestFormatFourCacheMissesCleanly: a cache directory written by the
// previous on-disk format (4: a directory of per-artifact files per
// fingerprint, one merge file per ordered pair) must behave as a clean miss
// under format 5 — the store cold-starts without error, re-registration
// rebuilds (knncost_catalog_builds increments), and the fresh bundle lands
// beside the stale directory.
func TestFormatFourCacheMissesCleanly(t *testing.T) {
	dir := t.TempDir()
	staleFP := strings.Repeat("ab", 32)

	// Hand-write what a format-4 cache left behind: its registry, an
	// artifact directory with its manifest, and a pair-merge file. None of
	// it is read under format 5.
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
		t.Fatalf("no format-5 bundle written beside the format-4 directory: %v", err)
	}
	if _, err := snap.Staircase.EstimateSelect(geom.Point{X: 40, Y: 40}, 9); err != nil {
		t.Fatalf("estimate after format migration: %v", err)
	}
	if snap.Resolution.MaxK != opt.MaxK || snap.Resolution.GridSize != opt.GridSize {
		t.Fatalf("rebuilt resolution %+v does not carry the store defaults (maxk %d, grid %d)",
			snap.Resolution, opt.MaxK, opt.GridSize)
	}
}
