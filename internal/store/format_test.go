package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"knncost/internal/core"
	"knncost/internal/engine"
	"knncost/internal/geom"
)

// writeFormatFour hand-writes what a format-4 cache left behind: its
// registry naming "legacy", an artifact directory with its manifest, and a
// pair-merge file. None of it is read any more.
func writeFormatFour(t *testing.T, dir string) {
	t.Helper()
	staleFP := strings.Repeat("ab", 32)
	for _, sub := range []string{filepath.Join("cat", staleFP), "merge"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := json.Marshal(map[string]any{
		"format":    4,
		"relations": []map[string]any{{"name": "legacy", "fingerprint": staleFP}},
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(map[string]any{"format": 4, "num_points": 900, "max_k": 64})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"registry.json": reg,
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
}

// oldFiles lists every regular file under dir/cat, with its bytes.
func oldFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(filepath.Join(dir, "cat"), func(p string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			out[p], err = os.ReadFile(p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOlderCacheFormatsMissCleanly: a cache directory an older format wrote
// is a clean miss under the current one, whatever it holds:
//
//   - format 4: a directory of per-artifact files per fingerprint and one
//     merge file per ordered pair, hand-written here;
//   - testdata/format5: 24-byte catalog entries and a KNAB\x01 section —
//     gridPoints(200, 7) as "legacy" and gridPoints(150, 8) as "peer", one
//     demanded pair merge (a .knm side-file), its WAL;
//   - testdata/format6: 8-byte aligned catalog entries and a KNAB\x03
//     section — gridPoints(200, 61), (250, 62) and (300, 63) as r0, r1 and
//     r2, every ordered pair demanded (two .knm side-files);
//   - testdata/format7: varint catalog entries and no KNCI section —
//     gridPoints(200, 81) as d0 and gridPoints(300, 82) as t0 at grid 2, its
//     registry entries carrying a "declared" resolution;
//   - testdata/format8: the same relations with a KNCI section, a registry
//     without covered LSNs, and a log of kind-3 checkpoint records, which
//     the current log refuses as malformed and truncates.
//
// For each, the store starts without error and restores nothing, the
// registry is moved aside, and nothing is swept while the .bad file is
// there. Re-registering the same points rebuilds every catalog, even over an
// old file planted at the very path the new fingerprint names, and answers
// as the old store did. The next restart is warm. Once the .bad file is
// removed, the start-up pass sweeps every old bundle and side-file — a .knm
// planted in the now current-format directory included — and nothing else.
func TestOlderCacheFormatsMissCleanly(t *testing.T) {
	type rel struct {
		name string
		pts  []geom.Point
	}
	for _, tc := range []struct {
		name    string
		fixture string // a directory under testdata; "" for the hand-written format 4
		rels    []rel
		joins   map[[2]string]float64 // what the old store answered, when recorded
	}{
		{name: "format4", rels: []rel{{"legacy", gridPoints(900, 7)}}},
		{name: "format5", fixture: "format5", rels: []rel{{"legacy", gridPoints(200, 7)}, {"peer", gridPoints(150, 8)}}},
		{name: "format6", fixture: "format6",
			rels: []rel{{"r0", gridPoints(200, 61)}, {"r1", gridPoints(250, 62)}, {"r2", gridPoints(300, 63)}},
			joins: map[[2]string]float64{ // joinEstimates over the fixture, before its store closed
				{"r0", "r1"}: 188, {"r0", "r2"}: 208,
				{"r1", "r0"}: 176, {"r1", "r2"}: 168,
				{"r2", "r0"}: 224, {"r2", "r1"}: 196,
			}},
		{name: "format7", fixture: "format7",
			rels:  []rel{{"d0", gridPoints(200, 81)}, {"t0", gridPoints(300, 82)}},
			joins: map[[2]string]float64{{"d0", "t0"}: 240, {"t0", "d0"}: 196}},
		{name: "format8", fixture: "format8", rels: []rel{{"d0", gridPoints(200, 81)}, {"t0", gridPoints(300, 82)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.fixture == "" {
				writeFormatFour(t, dir)
			} else if err := copyTree(filepath.Join("testdata", tc.fixture), dir); err != nil {
				t.Fatal(err)
			}
			old := oldFiles(t, dir)
			var paths []string
			var oldBundle, oldSide int
			for path := range old {
				paths = append(paths, path)
				switch filepath.Ext(path) {
				case ".knc":
					oldBundle++
				case ".knm":
					oldSide++
				}
			}
			opt := testOptions(t)
			opt.CacheDir = dir
			opt.CompactInterval = -1
			s := newTestStore(t, opt)
			waitReady(t, s)
			if n := s.View().NumRelations(); n != 0 {
				t.Fatalf("the old registry restored %d relations, want 0", n)
			}
			if _, err := os.Stat(filepath.Join(dir, "registry.json.bad")); err != nil {
				t.Fatalf("the old registry was not moved aside: %v", err)
			}

			// The hostile spelling of the miss: old bytes under the name the
			// current format looks for.
			res := s.opt.resolveResolution(core.Resolution{})
			planted := s.cache.bundlePath(s.fingerprint(tc.rels[0].pts, res))
			if _, clash := old[planted]; clash {
				t.Fatalf("the current fingerprint %s is an old one", filepath.Base(planted))
			}
			slices.Sort(paths)
			var stale []byte
			for _, path := range paths {
				if strings.HasSuffix(path, ".knc") || strings.HasSuffix(path, "points.bin") {
					stale = old[path]
					break
				}
			}
			if _, err := decodeBundle(stale); err == nil {
				t.Fatal("an old bundle decoded")
			}
			if err := os.WriteFile(planted, stale, 0o644); err != nil {
				t.Fatal(err)
			}

			var names []string
			for _, r := range tc.rels {
				if _, err := s.Register(r.name, r.pts); err != nil {
					t.Fatalf("Register %s: %v", r.name, err)
				}
				names = append(names, r.name)
			}
			waitReady(t, s, names...)
			if b, h := s.CatalogBuilds(), s.CacheHits(); b != int64(2*len(names)) || h != 0 {
				t.Fatalf("re-registration: %d builds, %d cache hits; want %d and none", b, h, 2*len(names))
			}
			if fresh, err := os.ReadFile(planted); err != nil {
				t.Fatal(err)
			} else if _, err := decodeBundle(fresh); err != nil {
				t.Fatalf("the bundle at the new fingerprint was not rewritten in the current format: %v", err)
			}
			for _, r := range tc.rels {
				snap := s.View().Relation(r.name)
				if _, err := snap.Staircase.EstimateSelect(geom.Point{X: 40, Y: 1}, 9); err != nil {
					t.Fatalf("estimate after the migration: %v", err)
				}
				if snap.Resolution != res {
					t.Fatalf("rebuilt resolution %+v, want the store defaults %+v", snap.Resolution, res)
				}
			}
			if tc.joins != nil {
				if got := joinEstimates(t, s.View()); !reflect.DeepEqual(got, tc.joins) {
					t.Fatalf("joins after the rebuild: %v, the old store answered %v", got, tc.joins)
				}
			}
			closeStore(t, s)
			for path, data := range old {
				if now, err := os.ReadFile(path); err != nil || string(now) != string(data) {
					t.Errorf("old file %s swept or changed while registry.json.bad is there: %v", path, err)
				}
			}
			if n := s.CacheSweptFiles(); n != 0 {
				t.Fatalf("swept %d files while registry.json.bad is there", n)
			}

			warm := newTestStore(t, opt)
			waitReady(t, warm, names...)
			if b, h := warm.CatalogBuilds(), warm.CacheHits(); b != 0 || h != int64(2*len(names)) {
				t.Fatalf("restart after the migration: %d built, %d cache hits, want 0 and %d", b, h, 2*len(names))
			}
			closeStore(t, warm)

			// The operator removes the .bad file: the old generations are dead.
			if err := os.Remove(filepath.Join(dir, "registry.json.bad")); err != nil {
				t.Fatal(err)
			}
			side := filepath.Join(dir, "cat", strings.Repeat("cd", 32)+".knm")
			if err := os.WriteFile(side, []byte("KNMERGE"), 0o644); err != nil {
				t.Fatal(err)
			}
			swept := newTestStore(t, opt)
			waitReady(t, swept, names...)
			if n, want := swept.CacheSweptFiles(), int64(oldBundle+oldSide+1); n != want || swept.CatalogBuilds() != 0 {
				t.Fatalf("start-up pass swept %d files (%d builds), want the %d old bundles and side-files and the planted one", n, swept.CatalogBuilds(), want)
			}
			var left []string
			for _, name := range catNames(t, dir) {
				if filepath.Ext(name) == ".knc" || filepath.Ext(name) == ".knm" {
					left = append(left, strings.TrimSuffix(name, ".knc"))
				}
			}
			var live []string
			for _, name := range names {
				live = append(live, swept.View().Relation(name).Fingerprint)
			}
			slices.Sort(live)
			if !slices.Equal(left, live) {
				t.Fatalf("cat/ holds %v after the sweep, want the live bundles %v", left, live)
			}
			closeStore(t, swept)
		})
	}
}
