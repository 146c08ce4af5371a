package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded by handler
// shims placed between the layers' public constructors, kept in memory, and
// written out only when the run ends.

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Spans of one request share Req, the ID of its root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Route  string `json:"route"` // the root's request kind, e.g. "select"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanCtxKey struct{}

type spanCtx struct {
	id, req int64
	route   string
}

// routeHeader marks a request as traced and carries its kind from the load
// generator to the root shim, so spans can be grouped by route without
// parsing URLs. Real daemons are never sent it.
const routeHeader = "X-Bench-Route"

// shim wraps next in a span named name. A request is traced when it carries
// routeHeader or descends from a span; any other passes straight through,
// which is what the plain blocks of the traced pass and the set-up requests
// do. A nil tracer returns next itself.
func (tr *tracer) shim(name string, next http.Handler) http.Handler {
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := r.Context().Value(spanCtxKey{}).(spanCtx)
		route := r.Header.Get(routeHeader)
		if parent.id == 0 && route == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.nextID.Add(1)
		cur := spanCtx{id: id, req: parent.req, route: parent.route}
		if parent.id == 0 {
			cur.req = id
			cur.route = route
		}
		start := time.Since(tr.t0)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, cur)))
		end := time.Since(tr.t0)
		tr.add(span{ID: id, Parent: parent.id, Req: cur.req, Name: name, Route: cur.route,
			Start: int64(start), End: int64(end)})
	})
}

// traceMeter keeps the latencies of the plain and of the traced requests of
// the in-process pass, by request kind. The two modes alternate in short
// blocks on every connection, so both see the same machine and the same
// mix, and what separates their medians is what tracing costs.
type traceMeter struct {
	mu  sync.Mutex
	dur [2][numKinds][]float64 // seconds; plain, traced
}

func (m *traceMeter) add(traced bool, kind reqKind, dur time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	m.mu.Lock()
	m.dur[i][kind] = append(m.dur[i][kind], dur.Seconds())
	m.mu.Unlock()
}

// overheadPct is how much longer the workload's most frequent kind of
// request took traced than plain, medians, in percent of the plain one: for
// closed-loop connections, the throughput lost. Medians, because a mix has
// requests a thousand times dearer than others and a first touch after a
// restart is dearer than the next, and a sum would follow those few. Zero
// while either mode has no sample.
func (m *traceMeter) overheadPct() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	top := reqKind(0)
	for k := reqKind(1); k < numKinds; k++ {
		if len(m.dur[0][k]) > len(m.dur[0][top]) {
			top = k
		}
	}
	if len(m.dur[0][top]) == 0 || len(m.dur[1][top]) == 0 {
		return 0
	}
	plain := median(m.dur[0][top])
	return 100 * (median(m.dur[1][top]) - plain) / plain
}

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// writeTo writes the spans as JSON lines.
func (tr *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSpans reads a file written by writeTo.
func loadSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// selfTimes is the analysis of a trace: for every (route, span name) the
// self times of that layer in nanoseconds, one per request.
type selfTimes struct {
	self     map[[2]string][]float64 // {route, name} → self ns per request
	total    map[string][]float64    // route → root span ns per request
	requests int
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's: the part of the parent that waited on a child.
// Children of a scatter overlap, and the slowest one sets the cover.
func covered(parent *span, children []*span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total int64
	at := parent.Start
	for _, c := range children {
		s, e := c.Start, c.End
		if s < at {
			s = at
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// analyze computes per-layer self times. A layer's self time in a request
// is the sum over its spans of duration minus the part its children cover.
func analyze(spans []span) *selfTimes {
	byReq := map[int64][]*span{}
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], &spans[i])
	}
	out := &selfTimes{self: map[[2]string][]float64{}, total: map[string][]float64{}}
	for req, ss := range byReq {
		children := map[int64][]*span{}
		var root *span
		for _, s := range ss {
			if s.ID == req {
				root = s
			} else {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		if root == nil {
			continue // a truncated span file
		}
		out.requests++
		perName := map[string]float64{}
		for _, s := range ss {
			perName[s.Name] += float64(s.dur() - covered(s, children[s.ID]))
		}
		for name, v := range perName {
			key := [2]string{root.Route, name}
			out.self[key] = append(out.self[key], v)
		}
		out.total[root.Route] = append(out.total[root.Route], float64(root.dur()))
	}
	return out
}

// p50us is the median self time of a layer on a route, in microseconds;
// zero when the route never reached the layer.
func (st *selfTimes) p50us(route, name string) float64 {
	v := st.self[[2]string{route, name}]
	if len(v) == 0 {
		return 0
	}
	return median(v) / 1e3
}
