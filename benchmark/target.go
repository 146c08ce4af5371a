package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"knncost/internal/service"
)

// target is a serving stack the workloads drive over HTTP: real daemon
// processes on loopback (procTarget) or the same layers assembled in this
// process (memTarget, used by the traced pass and the smoke test).
type target interface {
	// base is the URL prefix requests go to (the router's when routed).
	base() string
	client() *http.Client
	// restart kills the data node (shard "a" when routed), brings it back
	// on the same cache directory and returns exec-to-ready time.
	restart() (time.Duration, error)
	// counters returns the summed expvar-style counters of every node.
	counters() (map[string]float64, error)
	rssMB() (float64, error)
	// cpuSeconds is the CPU time every node has used since the stack came
	// up, restarts included.
	cpuSeconds() (float64, error)
	// mappings counts memory mappings of cache-directory files.
	mappings() (int, error)
	cacheDir() string
	stop()
}

// newClient returns the load generator's HTTP client: keep-alive
// connections, at most `connections` of them per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// conn is one load-generator connection's reusable request state.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
	// With a meter (the traced pass) the connection sends alternate blocks
	// of traceBlock requests plain and traced; traced is the mode of the
	// request being sent, sent counts the requests.
	meter  *traceMeter
	traced bool
	sent   int
}

// endOfRequest books one request, and the time it took, under its mode.
func (c *conn) endOfRequest(kind reqKind, dur time.Duration) {
	if c.meter != nil {
		c.meter.add(c.traced, kind, dur)
		c.sent++
	}
}

// do sends r and returns the status and body; the body is valid until the
// next call.
func (c *conn) do(r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		req.Header.Set(routeHeader, r.kind.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// register posts every relation and waits until all are ready. A 503 is the
// store's build queue being full (QueueLen 256): it is retried, not failed.
func register(t target, rels []relation) error {
	c := &conn{hc: t.client(), base: t.base()}
	deadline := time.Now().Add(setupTimeout)
	for i := range rels {
		req := request{method: http.MethodPost, path: "/relations", body: registerBody(&rels[i])}
		for {
			status, body, err := c.do(&req)
			if err != nil {
				return fmt.Errorf("registering %s: %w", rels[i].name, err)
			}
			if status == http.StatusAccepted {
				break
			}
			if status != http.StatusServiceUnavailable {
				return fmt.Errorf("registering %s: status %d: %s", rels[i].name, status, body)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("registering %s: still refused after %v", rels[i].name, setupTimeout)
			}
			time.Sleep(5 * time.Millisecond) // back-off pacing, not measured work
		}
	}
	return waitAllReady(c, len(rels), deadline)
}

// listRelations fetches GET /relations.
func listRelations(c *conn) ([]service.RelationInfo, error) {
	status, body, err := c.do(&request{method: http.MethodGet, path: "/relations"})
	if err != nil {
		return nil, fmt.Errorf("listing relations: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("listing relations: status %d: %.200s", status, body)
	}
	var infos []service.RelationInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, fmt.Errorf("listing relations: %w", err)
	}
	return infos, nil
}

// waitAllReady polls the listing until n relations are all ready.
func waitAllReady(c *conn, n int, deadline time.Time) error {
	for {
		infos, err := listRelations(c)
		if err != nil {
			return err
		}
		ready := 0
		for _, in := range infos {
			switch in.State {
			case "ready":
				ready++
			case "failed":
				return fmt.Errorf("relation %s failed to build: %s", in.Name, in.Error)
			}
		}
		if ready == n && len(infos) == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("relations not ready within %v", setupTimeout)
		}
		time.Sleep(2 * time.Millisecond) // poll pacing, not measured work
	}
}

// relationStatus fetches one relation's status.
func relationStatus(c *conn, name string) (service.RelationInfo, error) {
	var info service.RelationInfo
	status, body, err := c.do(&request{method: http.MethodGet, path: "/relations/" + name + "/status"})
	if err != nil {
		return info, err
	}
	if status != http.StatusOK {
		return info, fmt.Errorf("status of %s: %d: %s", name, status, body)
	}
	return info, json.Unmarshal(body, &info)
}

// --- real daemons ------------------------------------------------------------

// procTarget is knncostd child processes on loopback: one store node, or
// two shard daemons sharing a cache directory behind a router daemon.
type procTarget struct {
	sb     *sandbox
	hc     *http.Client
	nodes  []*daemon // store-backed daemons
	router *daemon   // nil when not routed
	cache  string
}

// startDaemons execs the workload's daemons with default flags. It is the
// first half of set-up; register is the second.
func startDaemons(sb *sandbox, sp *spec, hc *http.Client) (*procTarget, error) {
	cache, err := os.MkdirTemp(sb.dir, "cache-")
	if err != nil {
		return nil, err
	}
	t := &procTarget{sb: sb, hc: hc, cache: cache}
	common := []string{"-addr", "127.0.0.1:0", "-relations", "none", "-cache-dir", cache}
	if !sp.routed {
		d, err := sb.start(common...)
		if err != nil {
			return nil, err
		}
		t.nodes = []*daemon{d}
		return t, nil
	}
	var peers []string
	for _, id := range []string{"a", "b"} {
		d, err := sb.start(append([]string{"-shard-id", id}, common...)...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.nodes = append(t.nodes, d)
		peers = append(peers, id+"="+d.url())
	}
	t.router, err = sb.start("-router", "-replicas", "2", "-addr", "127.0.0.1:0", "-peers", strings.Join(peers, ","))
	if err != nil {
		t.stop()
		return nil, err
	}
	if err := t.router.waitReady(hc); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *procTarget) base() string {
	if t.router != nil {
		return t.router.url()
	}
	return t.nodes[0].url()
}

func (t *procTarget) client() *http.Client { return t.hc }
func (t *procTarget) cacheDir() string     { return t.cache }

// restart kills node 0 and brings it back. The store lists a relation as
// ready a moment before its cache-registry entry is written (publishLocked
// swaps the view first), and a kill inside that moment loses the relation.
// The status route takes the store's lock, which a publish holds until the
// registry is written, so one status call after everything is listed ready
// closes the window; what is left pending — acknowledged mutations — is
// what the restart is meant to replay.
func (t *procTarget) restart() (time.Duration, error) {
	c := &conn{hc: t.hc, base: t.nodes[0].url()}
	infos, err := listRelations(c)
	if err != nil {
		return 0, err
	}
	if len(infos) > 0 {
		if _, err := relationStatus(c, infos[0].Name); err != nil {
			return 0, err
		}
	}
	return t.nodes[0].restart(t.hc)
}

func (t *procTarget) all() []*daemon {
	if t.router != nil {
		return append(append([]*daemon{}, t.nodes...), t.router)
	}
	return t.nodes
}

func (t *procTarget) stop() {
	for _, d := range t.all() {
		d.kill()
	}
}

func (t *procTarget) rssMB() (float64, error) {
	var kb int64
	for _, d := range t.all() {
		n, err := rssOfPid(d.pid())
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}

func (t *procTarget) cpuSeconds() (float64, error) {
	var total float64
	for _, d := range t.all() {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (t *procTarget) mappings() (int, error) {
	total := 0
	for _, d := range t.nodes {
		n, err := mappingsOfPid(d.pid(), t.cache)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// counters sums the numeric expvars of every daemon; the router's per-shard
// request map is flattened to knnrouter_requests.<shard>.
func (t *procTarget) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range t.all() {
		resp, err := t.hc.Get(d.url() + "/debug/vars")
		if err != nil {
			return nil, err
		}
		var vars map[string]any
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding /debug/vars: %w", err)
		}
		for name, v := range vars {
			switch v := v.(type) {
			case float64:
				out[name] += v
			case map[string]any:
				if name != "knnrouter_requests" {
					continue
				}
				for shard, n := range v {
					if f, ok := n.(float64); ok {
						out[name+"."+shard] += f
					}
				}
			}
		}
	}
	return out, nil
}
