package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sendJSON issues one bodied request and decodes the JSON reply.
func sendJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: non-JSON body: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func feedBody(n int) string {
	var b bytes.Buffer
	b.WriteString(`{"name":"feed","points":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d.%d,%d.%d]", i%89, i%7, i/89, i%13)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestIngestSurvivesRestartAndConverges is the daemon-level crash-recovery
// acceptance: stream mutations into a relation with compaction disabled (so
// the WAL is their only home), stop the daemon, restart against the same
// cache directory, and require (a) every mutation replayed from the log,
// (b) the relation converging to the mutated point set, and (c) estimates
// bit-identical to a from-scratch registration of that exact sequence.
func TestIngestSurvivesRestartAndConverges(t *testing.T) {
	cacheDir := t.TempDir()
	base, exit := startDaemon(t,
		"-cache-dir", cacheDir, "-compact-threshold", "1000000", "-compact-interval=-1s")
	waitReady(t, base)

	if code, body := sendJSON(t, http.MethodPost, base+"/relations", feedBody(400)); code != http.StatusAccepted {
		t.Fatalf("register feed: %d %v", code, body)
	}
	waitRelationReady(t, base, "feed")

	// Three appends and one delete; with compaction off they live only in
	// the WAL.
	for b := 0; b < 3; b++ {
		var pts []string
		for i := 0; i < 5; i++ {
			pts = append(pts, fmt.Sprintf("[%d.25,%d.75]", 90+b, i))
		}
		code, body := sendJSON(t, http.MethodPost, base+"/relations/feed/points",
			`{"points":[`+strings.Join(pts, ",")+`]}`)
		if code != http.StatusOK {
			t.Fatalf("append %d: %d %v", b, code, body)
		}
		if got := body["delta_ops"].(float64); int(got) != b+1 {
			t.Fatalf("append %d: delta_ops %v", b, got)
		}
	}
	if code, body := sendJSON(t, http.MethodDelete, base+"/relations/feed/points",
		`{"points":[[90.25,0.75]]}`); code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, body)
	} else if int(body["num_points"].(float64)) != 400 {
		t.Fatalf("published snapshot moved without compaction: %v", body["num_points"])
	}
	if got := expvarInt(t, base, "knncost_wal_appends"); got < 4 {
		t.Fatalf("knncost_wal_appends = %d, want >= 4", got)
	}
	if got := expvarInt(t, base, "knncost_wal_fsyncs"); got < 1 {
		t.Fatalf("knncost_wal_fsyncs = %d, want >= 1", got)
	}
	stopDaemon(t, exit)

	// Restart with compaction enabled: the WAL replays the four mutations
	// and background compaction folds them into fresh catalogs.
	base, exit = startDaemon(t,
		"-cache-dir", cacheDir, "-compact-threshold", "5", "-compact-interval", "50ms")
	waitReady(t, base)
	if got := expvarInt(t, base, "knncost_wal_replayed"); got != 4 {
		t.Fatalf("knncost_wal_replayed = %d, want 4", got)
	}
	waitRelationReady(t, base, "feed")
	const wantPoints = 400 + 15 - 1
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getStatus(t, base+"/relations/feed/status")
		np, _ := st["num_points"].(float64)
		dops, _ := st["delta_ops"].(float64)
		if code == http.StatusOK && int(np) == wantPoints && dops == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed deltas never drained: %d %v", code, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := expvarInt(t, base, "knncost_compactions"); got < 1 {
		t.Fatalf("knncost_compactions = %d, want >= 1", got)
	}

	// The differential gate, end to end: the logical dump re-registered
	// from scratch must estimate bit-identically to the compacted original.
	resp, err := http.Get(base + "/relations/feed/points")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("points dump: %d %v", resp.StatusCode, err)
	}
	scratch := bytes.Replace(dump, []byte(`"name":"feed"`), []byte(`"name":"scratch"`), 1)
	if code, body := sendJSON(t, http.MethodPost, base+"/relations", string(scratch)); code != http.StatusAccepted {
		t.Fatalf("register scratch: %d %v", code, body)
	}
	waitRelationReady(t, base, "scratch")
	for _, probe := range []string{
		"x=10&y=4&k=1", "x=44.5&y=2.2&k=9", "x=89&y=1&k=33",
	} {
		_, a := getStatus(t, base+"/estimate/select?rel=feed&"+probe)
		_, b := getStatus(t, base+"/estimate/select?rel=scratch&"+probe)
		if a["blocks"] != b["blocks"] {
			t.Fatalf("probe %s: feed %v != scratch %v (recovery not bit-exact)", probe, a["blocks"], b["blocks"])
		}
	}

	// The plan cache's counters reach /debug/vars: a cached plan over feed
	// is purged by feed's next compaction publish.
	plan := `{"selects":[{"relation":"feed","x":10,"y":4,"k":3},{"relation":"scratch","x":10,"y":4,"k":5}]}`
	if code, body := sendJSON(t, http.MethodPost, base+"/plan", plan); code != http.StatusOK {
		t.Fatalf("plan: %d %v", code, body)
	}
	if code, body := sendJSON(t, http.MethodPost, base+"/relations/feed/points",
		`{"points":[[1.5,1.5],[2.5,1.5],[3.5,1.5],[4.5,1.5],[5.5,1.5]]}`); code != http.StatusOK {
		t.Fatalf("append after plan: %d %v", code, body)
	}
	for deadline := time.Now().Add(30 * time.Second); expvarInt(t, base, "knncost_plan_cache_invalidations") < 1; {
		if time.Now().After(deadline) {
			t.Fatal("knncost_plan_cache_invalidations stayed 0 after a compaction publish under a cached plan")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every compaction since the restart left a generation behind, and the
	// store swept it: once the daemon has drained, cat/ holds one bundle for
	// each of the four live relations (the boot schema's two, feed, scratch)
	// and nothing else.
	if got := expvarInt(t, base, "knncost_cache_swept_files"); got < 1 {
		t.Fatalf("knncost_cache_swept_files = %d after %d compactions, want >= 1", got, expvarInt(t, base, "knncost_compactions"))
	}
	stopDaemon(t, exit)
	ents, err := os.ReadDir(filepath.Join(cacheDir, "cat"))
	if err != nil {
		t.Fatal(err)
	}
	byExt := map[string]int{}
	for _, ent := range ents {
		byExt[filepath.Ext(ent.Name())]++
	}
	if byExt[".knc"] != 4 || len(ents) != 4 {
		t.Fatalf("cat/ holds %d files (%v) for 4 live relations, want their 4 bundles only", len(ents), byExt)
	}
}

// startRouterDaemon boots a run() in router mode and returns its base URL.
func startRouterDaemon(t *testing.T, extraArgs ...string) (string, chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	args := append([]string{"-addr", "127.0.0.1:0", "-access-log=false", "-router"}, extraArgs...)
	exit := make(chan int, 1)
	go func() {
		exit <- run(args, pw)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading listen line: %v", err)
	}
	go io.Copy(io.Discard, pr)
	addr := strings.TrimSpace(strings.TrimPrefix(line, "knncostd router listening on "))
	if addr == line {
		t.Fatalf("unexpected startup line %q", line)
	}
	return "http://" + addr, exit
}

// TestRouterIngestWiring pins the daemon wiring of the router's mutation
// fan-out and breaker flags: a shard daemon plus a router daemon in one
// process, a mutation streamed through the router landing on the shard, and
// the knnrouter_breaker_trips expvar present. Both daemons share the
// process's signal handling, so one SIGTERM drains both.
func TestRouterIngestWiring(t *testing.T) {
	shardBase, shardExit := startDaemon(t,
		"-relations", "none", "-shard-id", "a", "-cache-dir", t.TempDir())
	waitReady(t, shardBase)
	routerBase, routerExit := startRouterDaemon(t,
		"-peers", "a="+shardBase, "-replicas", "1",
		"-attempt-timeout", "500ms", "-breaker-failures", "2", "-breaker-backoff", "20ms")
	waitReady(t, routerBase)

	if code, body := sendJSON(t, http.MethodPost, routerBase+"/relations", feedBody(150)); code != http.StatusAccepted {
		t.Fatalf("register through router: %d %v", code, body)
	}
	waitRelationReady(t, routerBase, "feed")
	code, body := sendJSON(t, http.MethodPost, routerBase+"/relations/feed/points", `{"points":[[7.5,8.5]]}`)
	if code != http.StatusOK {
		t.Fatalf("mutate through router: %d %v", code, body)
	}
	// The shard holds the write (the logical dump includes pending deltas).
	if _, dump := getStatus(t, shardBase+"/relations/feed/points"); len(dump["points"].([]any)) != 151 {
		t.Fatalf("shard logical dump has %d points, want 151", len(dump["points"].([]any)))
	}
	if got := expvarInt(t, routerBase, "knnrouter_breaker_trips"); got != 0 {
		t.Fatalf("knnrouter_breaker_trips = %d, want 0", got)
	}

	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	for name, exit := range map[string]chan int{"shard daemon": shardExit, "router daemon": routerExit} {
		awaitExit(t, name, exit)
	}
}

// TestHeapUnderIngestIsFlat: what the daemon keeps in memory is what it
// serves, not what it has served. Every fold replaces one relation's
// generation; between folds the schema is queried the way clients do (a
// select, a join through each pair merge, a plan). The daemon's live heap
// after fold 80 must be that after fold 20, give or take — when each
// published generation stayed reachable from the next, sixty folds added
// sixty generations to it — and what serving takes: 295–315 KB with the
// points in the bundles, about 500 KB when every generation kept its 12,000
// points and a leaf id a point on the heap. The bound, 400 KB, is the 640 KB
// this test once put on the whole process's heap, less the ~240 KB the
// process held before the daemon started in a run of this package.
func TestHeapUnderIngestIsFlat(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first one's sweep frees what it found dead
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// ingest starts a daemon over two relations of n points and folds one
	// point into them alternately, folds times, querying the schema after
	// each fold and then calling at; it returns with the daemon running.
	ingest := func(n, folds int, at func(fold int)) (string, chan int) {
		base, exit := startDaemon(t,
			"-relations", fmt.Sprintf("hotels:%d,restaurants:%d", n, n),
			"-cache-dir", t.TempDir(), "-compact-threshold", "1", "-compact-interval=-1s")
		waitReady(t, base)
		names := []string{"hotels", "restaurants"}
		points := map[string]int{"hotels": n, "restaurants": n}
		for fold := 1; fold <= folds; fold++ {
			name := names[fold%2]
			code, body := sendJSON(t, http.MethodPost, base+"/relations/"+name+"/points",
				fmt.Sprintf(`{"points":[[%d.5,%d.25]]}`, fold%50, 10+fold%30))
			if code != http.StatusOK {
				t.Fatalf("fold %d: append: %d %v", fold, code, body)
			}
			points[name]++
			for deadline := time.Now().Add(30 * time.Second); ; {
				_, st := getStatus(t, base+"/relations/"+name+"/status")
				np, _ := st["num_points"].(float64)
				ops, _ := st["delta_ops"].(float64)
				if int(np) == points[name] && ops == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("fold %d never published: %v", fold, st)
				}
				time.Sleep(time.Millisecond)
			}
			for _, path := range []string{
				"/estimate/select?rel=" + name + "&x=10&y=45&k=7",
				"/estimate/join?outer=hotels&inner=restaurants&k=5",
				"/estimate/join?outer=restaurants&inner=hotels&k=5",
			} {
				if code, body := getStatus(t, base+path); code != http.StatusOK {
					t.Fatalf("fold %d: %s: %d %v", fold, path, code, body)
				}
			}
			plan := `{"selects":[{"relation":"hotels","x":10,"y":45,"k":3}],"join":{"outer":"hotels","inner":"restaurants","k":4}}`
			if code, body := sendJSON(t, http.MethodPost, base+"/plan", plan); code != http.StatusOK {
				t.Fatalf("fold %d: plan: %d %v", fold, code, body)
			}
			if at != nil {
				at(fold)
			}
		}
		return base, exit
	}
	// The heap is the daemon's from a reading taken before it starts, after
	// a small daemon has done the same once: what the process allocates
	// once (type caches, goroutines) and what the tests before this one
	// left are not the daemon's.
	_, exit := ingest(600, 2, nil)
	stopDaemon(t, exit)
	before := liveHeap()
	var at20 uint64
	base, exit := ingest(6000, 80, func(fold int) {
		if fold == 20 {
			at20 = liveHeap() - before
		}
	})
	at80 := liveHeap() - before
	t.Logf("live heap %d KB before the daemon, which adds %d KB after fold 20, %d KB after fold 80", before>>10, at20>>10, at80>>10)
	if grown := float64(at80) - float64(at20); grown > 0.25*float64(at20) {
		t.Errorf("the daemon's live heap grew from %d KB (fold 20) to %d KB (fold 80): %.0f KB a fold stay reachable",
			at20>>10, at80>>10, grown/60/1024)
	}
	if heapBound := uint64(400 << 10); at80 > heapBound {
		t.Errorf("the daemon's live heap is %d KB after fold 80, want <= %d KB: a generation keeps its points on the heap again", at80>>10, heapBound>>10)
	}
	if got := expvarInt(t, base, "knncost_compactions"); got != 80 {
		t.Errorf("knncost_compactions = %d, want 80", got)
	}
	stopDaemon(t, exit)
}

// TestRoutedRegistrationBuildsOnce: two shard daemons on one -cache-dir
// behind a router with two replicas. A registration reaches both shards at
// once, and between them they build each relation's catalogs once — the
// shard that finds the relation's build claim held waits and loads the
// bundle — so knncost_catalog_builds summed over the shards is two a
// relation (staircase and virtual grid), and every answer through the router
// is bit-identical to a single node's.
func TestRoutedRegistrationBuildsOnce(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	shardA, exitA := startDaemon(t, "-relations", "none", "-shard-id", "a", "-cache-dir", dir)
	shardB, exitB := startDaemon(t, "-relations", "none", "-shard-id", "b", "-cache-dir", dir)
	single, exitSingle := startDaemon(t, "-relations", "none")
	for _, base := range []string{shardA, shardB, single} {
		waitReady(t, base)
	}
	router, exitRouter := startRouterDaemon(t, "-peers", "a="+shardA+",b="+shardB, "-replicas", "2")
	waitReady(t, router)

	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rel%d", i)
		names = append(names, name)
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"name":%q,"points":[`, name)
		for j := 0; j < 4000; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d.%d,%d.%d]", (7*j+i)%89, j%7, (j/89+3*i)%80, (j+i)%13)
		}
		b.WriteString(`]}`)
		for _, base := range []string{router, single} {
			if code, body := sendJSON(t, http.MethodPost, base+"/relations", b.String()); code != http.StatusAccepted {
				t.Fatalf("register %s at %s: %d %v", name, base, code, body)
			}
		}
	}
	for _, name := range names {
		for _, base := range []string{shardA, shardB, single} {
			waitRelationReady(t, base, name)
		}
	}
	if built := expvarInt(t, shardA, "knncost_catalog_builds") + expvarInt(t, shardB, "knncost_catalog_builds"); built != 2*n {
		t.Errorf("the shards built %d catalogs for %d relations, want %d", built, n, 2*n)
	}
	if hits := expvarInt(t, shardA, "knncost_cache_hits") + expvarInt(t, shardB, "knncost_cache_hits"); hits != 2*n {
		t.Errorf("the shards loaded %d catalogs from the cache, want %d", hits, 2*n)
	}
	for i, name := range names {
		for _, path := range []string{
			"/estimate/select?rel=" + name + "&x=10&y=45&k=7",
			"/estimate/select?rel=" + name + "&x=60.5&y=12.25&k=40",
			"/estimate/join?outer=" + name + "&inner=" + names[(i+1)%n] + "&k=5",
		} {
			_, got := getStatus(t, router+path)
			_, want := getStatus(t, single+path)
			if got["blocks"] == nil || got["blocks"] != want["blocks"] {
				t.Errorf("%s: routed %v, single node %v", path, got["blocks"], want["blocks"])
			}
		}
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	for name, exit := range map[string]chan int{"shard a": exitA, "shard b": exitB, "single node": exitSingle, "router": exitRouter} {
		awaitExit(t, name, exit)
	}
}
