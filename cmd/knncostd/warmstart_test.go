package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// expvarInt reads one integer counter from /debug/vars.
func expvarInt(t *testing.T, base, name string) int64 {
	t.Helper()
	code, vars := getStatus(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}
	v, ok := vars[name].(float64)
	if !ok {
		t.Fatalf("/debug/vars has no %q (have %d vars)", name, len(vars))
	}
	return int64(v)
}

func waitRelationReady(t *testing.T, base, name string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := getStatus(t, base+"/relations/"+name+"/status")
		if code == http.StatusOK && body["state"] == "ready" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("relation %s not ready; last: %d %v", name, code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func stopDaemon(t *testing.T, exit chan int) {
	t.Helper()
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exit code %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
}

// TestWarmRestartServesIdenticalEstimates is the daemon-level cache
// acceptance: run with -cache-dir, register a relation at runtime, stop;
// a restarted daemon must restore the whole schema — boot and runtime
// relations — from the cache with zero catalog builds (expvar-checked) and
// serve estimates identical to the first run's. The two catalog-merge joins
// among the probes are the only pairs either run resolves: built at first
// demand by the cold run, loaded at first demand by the warm one.
func TestWarmRestartServesIdenticalEstimates(t *testing.T) {
	cacheDir := t.TempDir()
	base, exit := startDaemon(t, "-cache-dir", cacheDir)
	waitReady(t, base)

	// Register one relation at runtime; the restart must bring it back too.
	var body bytes.Buffer
	body.WriteString(`{"name":"runtime","points":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, "[%d.%d,%d.%d]", i%100, i%7, i/100, i%13)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(base+"/relations", "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("runtime registration: %d, want 202", resp.StatusCode)
	}
	waitRelationReady(t, base, "runtime")

	probes := []string{
		"/estimate/select?rel=hotels&x=10&y=45&k=5",
		"/estimate/select?rel=restaurants&x=-20&y=30&k=33",
		"/estimate/select?rel=runtime&x=50&y=10&k=9",
		"/estimate/join?outer=hotels&inner=restaurants&k=12",
		"/estimate/join?outer=runtime&inner=hotels&k=7",
		"/estimate/join?outer=restaurants&inner=runtime&k=3&technique=virtual-grid",
		"/estimate/join?outer=hotels&inner=restaurants&k=20&technique=aknn-bounds",
	}
	if n := expvarInt(t, base, "knncost_pair_merges"); n != 0 {
		t.Fatalf("knncost_pair_merges = %d before any join, want 0", n)
	}
	cold := make(map[string]float64, len(probes))
	for _, p := range probes {
		code, body := getStatus(t, base+p)
		if code != http.StatusOK {
			t.Fatalf("cold %s: %d %v", p, code, body)
		}
		blocks, ok := body["blocks"].(float64)
		if !ok || blocks < 1 {
			t.Fatalf("cold %s: blocks %v", p, body["blocks"])
		}
		cold[p] = blocks
	}
	if builds := expvarInt(t, base, "knncost_catalog_builds"); builds != 3*3+2 {
		t.Fatalf("cold run built %d catalogs, want 3 per relation and the 2 merges the probes asked for", builds)
	}
	if n, b := expvarInt(t, base, "knncost_pair_merges"), expvarInt(t, base, "knncost_pair_merge_bytes"); n != 2 || b <= 0 {
		t.Fatalf("knncost_pair_merges = %d (%d bytes) after two catalog-merge joins, want 2", n, b)
	}
	stopDaemon(t, exit)

	base2, exit2 := startDaemon(t, "-cache-dir", cacheDir)
	waitReady(t, base2)
	waitRelationReady(t, base2, "runtime")
	if builds := expvarInt(t, base2, "knncost_catalog_builds"); builds != 0 {
		t.Errorf("warm restart built %d catalogs, want 0 (everything cached)", builds)
	}
	loaded := expvarInt(t, base2, "knncost_cache_hits")
	if loaded == 0 {
		t.Error("warm restart recorded no cache hits")
	}
	for _, p := range probes {
		code, body := getStatus(t, base2+p)
		if code != http.StatusOK {
			t.Fatalf("warm %s: %d %v", p, code, body)
		}
		// Byte-identical catalogs mean bit-identical estimates; exact
		// float equality is the assertion, not a tolerance.
		if blocks := body["blocks"].(float64); blocks != cold[p] {
			t.Errorf("warm %s: blocks %v != cold %v", p, blocks, cold[p])
		}
	}
	if builds, hits := expvarInt(t, base2, "knncost_catalog_builds"), expvarInt(t, base2, "knncost_cache_hits"); builds != 0 || hits != loaded+2 {
		t.Errorf("warm run after the probes: %d built, %d cache hits, want 0 and the 2 merges on top of %d", builds, hits, loaded)
	}
	if n := expvarInt(t, base2, "knncost_pair_merges"); n != 2 {
		t.Errorf("knncost_pair_merges = %d on the warm run, want 2", n)
	}
	stopDaemon(t, exit2)
}

// TestRuntimeRegistrationWithoutCache: the admin endpoints work with no
// cache directory at all — builds are simply always cold.
func TestRuntimeRegistrationWithoutCache(t *testing.T) {
	base, exit := startDaemon(t)
	waitReady(t, base)
	resp, err := http.Post(base+"/relations", "application/json",
		bytes.NewReader([]byte(`{"name":"tmp","points":[[1,1],[2,2],[3,3],[4,4],[5,5],[6,1],[7,2],[8,3]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("registration: %d", resp.StatusCode)
	}
	waitRelationReady(t, base, "tmp")
	code, body := getStatus(t, base+"/estimate/select?rel=tmp&x=4&y=2&k=2")
	if code != http.StatusOK {
		t.Fatalf("estimate on runtime relation: %d %v", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/relations/tmp", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}
	stopDaemon(t, exit)
}
