package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startDaemon runs the daemon in-process on a random port and returns its
// base URL plus a channel carrying the eventual exit code.
func startDaemon(t *testing.T, extraArgs ...string) (string, chan int) {
	t.Helper()
	pr, pw := io.Pipe()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-relations", "hotels:800,restaurants:1200",
		"-capacity", "64", "-maxk", "50", "-sample", "30", "-grid", "4",
		"-access-log=false",
	}, extraArgs...)
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
	addr := strings.TrimSpace(strings.TrimPrefix(line, "knncostd listening on "))
	if addr == line {
		t.Fatalf("unexpected startup line %q", line)
	}
	return "http://" + addr, exit
}

func getStatus(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: non-JSON body: %v", url, err)
	}
	return resp.StatusCode, body
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _ := getStatus(t, base+"/readyz")
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not become ready within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Liveness is immediate, readiness flips from "starting" to "ready" once
// catalogs are built, and the service then answers estimates.
func TestStartupReadiness(t *testing.T) {
	base, exit := startDaemon(t)
	// /healthz answers from the first moment, whatever /readyz says.
	if code, body := getStatus(t, base+"/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	waitReady(t, base)
	code, body := getStatus(t, base+"/estimate/select?rel=hotels&x=10&y=45&k=5")
	if code != http.StatusOK {
		t.Fatalf("estimate after ready: %d %v", code, body)
	}
	if _, ok := body["blocks"].(float64); !ok {
		t.Fatalf("estimate response missing blocks: %v", body)
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	if code := <-exit; code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
}

// stallReader serves its payload normally until stallAfter bytes, then
// blocks until release is closed before delivering the rest — pinning the
// HTTP request in flight for as long as the test needs.
type stallReader struct {
	r          io.Reader
	read       int
	stallAfter int
	release    <-chan struct{}
}

func (s *stallReader) Read(p []byte) (int, error) {
	if s.read >= s.stallAfter {
		<-s.release
	}
	n, err := s.r.Read(p[:min(len(p), max(s.stallAfter-s.read, 1))])
	s.read += n
	return n, err
}

// counter reads one numeric counter from the daemon's /debug/vars.
func counter(t *testing.T, base, name string) float64 {
	t.Helper()
	_, vars := getStatus(t, base+"/debug/vars")
	v, ok := vars[name].(float64)
	if !ok {
		t.Fatalf("/debug/vars has no numeric %s: %v", name, vars[name])
	}
	return v
}

// SIGTERM with requests in flight drains them — every in-flight request
// completes with 200 — and the daemon exits 0 within the drain timeout.
// The requests are in flight by the server's own count, the limiter's
// (knncost_requests_in_flight): a request whose connection still waits in
// the accept backlog is not.
func TestGracefulDrainUnderLoad(t *testing.T) {
	base, exit := startDaemon(t, "-drain-timeout", "15s")
	waitReady(t, base)

	queries := bytes.Buffer{}
	queries.WriteString(`{"relation":"restaurants","parallelism":1,"queries":[`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			queries.WriteByte(',')
		}
		fmt.Fprintf(&queries, `{"x":%d,"y":45,"k":20}`, -30+i%60)
	}
	queries.WriteString(`]}`)

	// Each client stalls mid-body until the drain has begun, so when the
	// signal lands every client is in flight on the server.
	const clients = 8
	var wg sync.WaitGroup
	codes := make([]int, clients)
	release := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := &stallReader{
				r:          bytes.NewReader(queries.Bytes()),
				stallAfter: queries.Len() / 2,
				release:    release,
			}
			resp, err := http.Post(base+"/estimate/select/batch", "application/json", body)
			if err != nil {
				codes[c] = -1
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[c] = resp.StatusCode
		}(c)
	}
	// Every client is mid-request-body — admitted by the server, its
	// handler reading the body — when the plug is pulled.
	deadline := time.Now().Add(30 * time.Second)
	for counter(t, base, "knncost_requests_in_flight") != clients {
		if time.Now().After(deadline) {
			t.Fatalf("%v requests in flight after 30s, want %d", counter(t, base, "knncost_requests_in_flight"), clients)
		}
		time.Sleep(5 * time.Millisecond)
	}
	syscall.Kill(os.Getpid(), syscall.SIGTERM)
	// The bodies resume once the shutdown has closed the listener: a fresh
	// connection is refused from then on.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(base + "/healthz")
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("the listener still accepts 30s after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	awaitExit(t, "daemon", exit)
	wg.Wait()
	for c, code := range codes {
		if code != http.StatusOK {
			t.Errorf("in-flight client %d finished with %d, want 200 (drain must complete started work)", c, code)
		}
	}
}

func TestParseRelations(t *testing.T) {
	specs, err := parseRelations(" a:10 , b:20 ")
	if err != nil || len(specs) != 2 || specs[0].name != "a" || specs[1].n != 20 {
		t.Fatalf("specs=%v err=%v", specs, err)
	}
	// Empty and the explicit "none" mean no preloaded relations — a shard
	// daemon starts empty and is populated through the router.
	for _, none := range []string{"", "none"} {
		specs, err := parseRelations(none)
		if err != nil || specs != nil {
			t.Errorf("parseRelations(%q) = %v, %v; want nil, nil", none, specs, err)
		}
	}
	for _, bad := range []string{"a", "a:", "a:0", "a:-5", "a:x"} {
		if _, err := parseRelations(bad); err == nil {
			t.Errorf("parseRelations(%q) accepted", bad)
		}
	}
}

func TestBadFlagsExitCode(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}, io.Discard); code != 2 {
		t.Fatalf("bad flag exit code %d, want 2", code)
	}
	if code := run([]string{"-relations", "nonsense"}, io.Discard); code != 2 {
		t.Fatalf("bad relations exit code %d, want 2", code)
	}
}
