package middleware

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecoverConvertsPanicToJSON500(t *testing.T) {
	var buf strings.Builder
	h, _ := Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}), Config{Logger: log.New(&buf, "", 0)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/estimate/select", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	if !strings.Contains(body["error"], "boom") {
		t.Fatalf("error %q does not mention panic value", body["error"])
	}
	if !strings.Contains(buf.String(), "boom") || !strings.Contains(buf.String(), "middleware_test.go") {
		t.Fatalf("log %q missing panic value or stack", buf.String())
	}
}

// A panic after the response started cannot be turned into a 500; the
// recovery must still swallow it (and log) rather than kill the serve
// goroutine un-notified.
func TestRecoverAfterHeadersWritten(t *testing.T) {
	var buf strings.Builder
	h, _ := Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("late boom")
	}), Config{Logger: log.New(&buf, "", 0)})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want the already-written 200", rec.Code)
	}
	if !strings.Contains(buf.String(), "late boom") {
		t.Fatalf("log %q missing panic value", buf.String())
	}
}

// http.ErrAbortHandler is re-raised, and neither a panic line nor an
// access line is written for it.
func TestRecoverPassesAbortHandler(t *testing.T) {
	var buf strings.Builder
	h, _ := Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}), Config{Logger: log.New(&buf, "", 0), AccessLog: true})
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was not re-raised")
		}
		if buf.Len() != 0 {
			t.Fatalf("aborted request logged %q", buf.String())
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

func TestRequestIDInjectsAndEchoes(t *testing.T) {
	var got string
	h, _ := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = GetRequestID(r.Context())
	}), Config{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !strings.HasPrefix(got, "req-") || len(got) < len("req-000000") {
		t.Fatalf("request ID in context %q, want req-%%06d", got)
	}
	if hdr := rec.Header().Get("X-Request-ID"); hdr != got {
		t.Fatalf("header %q != context %q", hdr, got)
	}
	// Client-supplied IDs are honored.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-ID", "client-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got != "client-7" || rec.Header().Get("X-Request-ID") != "client-7" {
		t.Fatalf("client ID not honored: context %q, header %q", got, rec.Header().Get("X-Request-ID"))
	}
	if GetRequestID(context.Background()) != "" {
		t.Fatal("a context Wrap never saw carries a request ID")
	}
}

// A client ID that could forge fields of the access or panic line is
// replaced, in the echo and in both lines; a well-formed one is kept.
func TestRequestIDRefusesForgedFields(t *testing.T) {
	var buf strings.Builder
	h, _ := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/panic" {
			panic("boom")
		}
	}), Config{Logger: log.New(&buf, "", 0), AccessLog: true})
	serve := func(path, id string) (echo, logged string) {
		t.Helper()
		buf.Reset()
		req := httptest.NewRequest("GET", path, nil)
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Header().Get("X-Request-ID"), buf.String()
	}
	for _, forged := range []string{
		"abc status=500 bytes=9\tpath=/x",
		"a b",
		"id=x",
		"new\nline",
		strings.Repeat("x", 65),
	} {
		for _, path := range []string{"/estimate/select", "/panic"} {
			echo, logged := serve(path, forged)
			if echo == forged || !strings.HasPrefix(echo, "req-") {
				t.Errorf("%s: ID %q echoed as %q, want a fresh req- ID", path, forged, echo)
			}
			if strings.Contains(logged, forged) || strings.Count(logged, "id="+echo) != strings.Count(logged, "id=") {
				t.Errorf("%s: ID %q reached the log: %q", path, forged, logged)
			}
			if strings.Count(logged, "status=") != 1 {
				t.Errorf("%s: log %q does not hold exactly one status field", path, logged)
			}
		}
	}
	for _, ok := range []string{"client-7", "a.b_c:D-9", strings.Repeat("x", 64)} {
		echo, logged := serve("/panic", ok)
		if echo != ok || !strings.Contains(logged, "(id="+ok+")") || !strings.Contains(logged, " id="+ok+"\n") {
			t.Errorf("ID %q not honored: echo %q, log %q", ok, echo, logged)
		}
	}
}

func TestAccessLogLine(t *testing.T) {
	var buf strings.Builder
	h, _ := Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		fmt.Fprint(w, "short")
	}), Config{Logger: log.New(&buf, "", 0), AccessLog: true})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/estimate/select?k=5", nil))
	line := buf.String()
	for _, want := range []string{"access method=GET ", "path=/estimate/select ", "status=418 ", "bytes=5 ", "dur=", "id=req-"} {
		if !strings.Contains(line, want) {
			t.Errorf("access line %q missing %q", line, want)
		}
	}
	// Without AccessLog nothing is written for a clean request.
	buf.Reset()
	h, _ = Wrap(okHandler(), Config{Logger: log.New(&buf, "", 0)})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/estimate/select", nil))
	if buf.Len() != 0 {
		t.Fatalf("access log off, yet logged %q", buf.String())
	}
}

// Each route gets its own budget: /cost/ the strict one, /relations the
// admin one (or the estimate one when the admin one is zero), everything
// else the estimate one; a zero budget means no deadline.
func TestDeadlinesByPrefix(t *testing.T) {
	deadlineOf := func(cfg Config, path string) time.Duration {
		t.Helper()
		var got time.Duration
		h, _ := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if d, ok := r.Context().Deadline(); ok {
				got = time.Until(d)
			}
		}), cfg)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", path, nil))
		return got
	}
	near := func(got, want time.Duration) bool { return got <= want && got > want-time.Second }
	cfg := Config{EstimateDeadline: time.Hour, CostDeadline: time.Minute, AdminDeadline: 10 * time.Hour}
	for path, want := range map[string]time.Duration{
		"/estimate/select":     time.Hour,
		"/techniques":          time.Hour,
		"/cost/join":           time.Minute,
		"/relations":           10 * time.Hour,
		"/relations/a/points":  10 * time.Hour,
		"/costly/not-the-cost": time.Hour,
	} {
		if got := deadlineOf(cfg, path); !near(got, want) {
			t.Errorf("%s: deadline in %v, want %v", path, got, want)
		}
	}
	cfg.AdminDeadline = 0
	if got := deadlineOf(cfg, "/relations"); !near(got, time.Hour) {
		t.Errorf("/relations without an admin budget: deadline in %v, want the estimate one", got)
	}
	cfg.CostDeadline = 0
	if got := deadlineOf(cfg, "/cost/select"); got != 0 {
		t.Errorf("/cost/select with a zero budget: deadline in %v, want none", got)
	}
	if got := deadlineOf(Config{}, "/estimate/select"); got != 0 {
		t.Errorf("zero config: deadline in %v, want none", got)
	}
}

// TestDeadlineContextArmsOnDemand: a request's context reports its deadline
// without a timer, and behaves as context.WithTimeout's did once something
// asks Done or Err: the deadline fires, a client disconnect cancels, the
// end of the request cancels (also a context armed after it), values pass
// through, and concurrent first askers share one channel.
func TestDeadlineContextArmsOnDemand(t *testing.T) {
	type key struct{}
	serve := func(d time.Duration, parent context.Context, handle func(ctx context.Context)) {
		t.Helper()
		h, _ := Wrap(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) { handle(r.Context()) }),
			Config{Logger: log.New(io.Discard, "", 0), EstimateDeadline: d})
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/estimate/select", nil).WithContext(parent))
	}
	parent := context.WithValue(context.Background(), key{}, "v")

	t.Run("the deadline fires", func(t *testing.T) {
		serve(20*time.Millisecond, parent, func(ctx context.Context) {
			if time.Sleep(30 * time.Millisecond); ctx.Err() != context.DeadlineExceeded {
				t.Errorf("Err after the deadline, never armed: %v", ctx.Err())
			}
		})
		serve(20*time.Millisecond, parent, func(ctx context.Context) {
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("Done never closed")
			}
			if ctx.Err() != context.DeadlineExceeded {
				t.Errorf("Err once Done closed: %v", ctx.Err())
			}
		})
	})
	t.Run("a client disconnect cancels", func(t *testing.T) {
		client, hangUp := context.WithCancel(parent)
		serve(time.Hour, client, func(ctx context.Context) {
			done := ctx.Done()
			hangUp()
			<-done
			if ctx.Err() != context.Canceled {
				t.Errorf("Err after the disconnect: %v", ctx.Err())
			}
		})
	})
	t.Run("the end of the request cancels", func(t *testing.T) {
		var armed, unarmed, derived context.Context
		serve(time.Hour, parent, func(ctx context.Context) {
			if _, ok := ctx.Deadline(); !ok || ctx.Value(key{}) != "v" {
				t.Errorf("before arming: deadline %v, value %v", ok, ctx.Value(key{}))
			}
			armed, unarmed = ctx, ctx
			var cancel context.CancelFunc
			derived, cancel = context.WithCancel(ctx) // arms it
			t.Cleanup(cancel)
			if ctx.Err() != nil || derived.Err() != nil || ctx.Value(key{}) != "v" || GetRequestID(derived) == "" {
				t.Errorf("armed, before the end: %v, %v, value %v, id %q", ctx.Err(), derived.Err(), ctx.Value(key{}), GetRequestID(derived))
			}
		})
		serve(time.Hour, parent, func(ctx context.Context) { unarmed = ctx })
		<-derived.Done()
		for name, ctx := range map[string]context.Context{"armed": armed, "armed after the end": unarmed} {
			select {
			case <-ctx.Done():
			default:
				t.Errorf("%s: Done open after the request", name)
			}
			if ctx.Err() != context.Canceled {
				t.Errorf("%s: Err after the request: %v", name, ctx.Err())
			}
		}
	})
	t.Run("concurrent first askers share one channel", func(t *testing.T) {
		serve(time.Hour, parent, func(ctx context.Context) {
			chans := make([]<-chan struct{}, 8)
			var wg sync.WaitGroup
			for i := range chans {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = ctx.Err()
					_ = ctx.Value(key{})
					chans[i] = ctx.Done()
				}()
			}
			wg.Wait()
			for _, c := range chans {
				if c != chans[0] {
					t.Fatal("two Done channels for one request")
				}
			}
		})
	})
	t.Run("a route without a deadline is its parent's", func(t *testing.T) {
		serve(0, parent, func(ctx context.Context) {
			if _, ok := ctx.Deadline(); ok || ctx.Done() != nil || ctx.Err() != nil || ctx.Value(key{}) != "v" || GetRequestID(ctx) == "" {
				t.Errorf("deadline %v, done %v, err %v, value %v, id %q", ok, ctx.Done(), ctx.Err(), ctx.Value(key{}), GetRequestID(ctx))
			}
		})
	})
}

// Exact shed accounting: with maxInFlight=2 and queueLen=2, four concurrent
// requests are admitted or queued and every further arrival is shed with a
// 503 carrying Retry-After.
func TestLimiterShedsExactly(t *testing.T) {
	const maxInFlight, queueLen, extra = 2, 2, 3
	release := make(chan struct{})
	entered := make(chan struct{}, maxInFlight+queueLen)
	h, lim := Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprintln(w, "ok")
	}), Config{
		Logger:      log.New(io.Discard, "", 0),
		MaxInFlight: maxInFlight,
		QueueLen:    queueLen,
		RetryAfter:  2 * time.Second,
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	type result struct {
		status     int
		retryAfter string
	}
	results := make(chan result, maxInFlight+queueLen+extra)
	get := func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	// Fill the in-flight slots and wait until the handlers run.
	for i := 0; i < maxInFlight; i++ {
		go get()
	}
	for i := 0; i < maxInFlight; i++ {
		<-entered
	}
	// Fill the queue and wait until the limiter reports them queued.
	for i := 0; i < queueLen; i++ {
		go get()
	}
	waitFor(t, func() bool { return lim.Queued() == queueLen })
	// Everything beyond is shed immediately.
	for i := 0; i < extra; i++ {
		go get()
	}
	for i := 0; i < extra; i++ {
		r := <-results
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("overload request got %d, want 503", r.status)
		}
		if r.retryAfter != "2" {
			t.Fatalf("Retry-After = %q, want \"2\"", r.retryAfter)
		}
	}
	if got := lim.Shed(); got != extra {
		t.Fatalf("Shed() = %d, want %d", got, extra)
	}
	// Releasing the handlers drains queue and in-flight successfully.
	close(release)
	for i := 0; i < maxInFlight+queueLen; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("admitted request got %d, want 200", r.status)
		}
	}
	if lim.InFlight() != 0 || lim.Queued() != 0 {
		t.Fatalf("limiter not drained: inflight=%d queued=%d", lim.InFlight(), lim.Queued())
	}
}

// A queued request whose context dies leaves the queue with a 503 instead of
// waiting forever.
func TestLimiterQueueRespectsContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	entered := make(chan struct{}, 1)
	h, lim := Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}), Config{Logger: log.New(io.Discard, "", 0), MaxInFlight: 1, QueueLen: 1})
	// Occupy the single slot.
	rec1 := make(chan struct{})
	go func() {
		defer close(rec1)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
	<-entered
	// Queue a request with an already-short deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued+cancelled request got %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want the default \"1\"", rec.Header().Get("Retry-After"))
	}
	if lim.Queued() != 0 || lim.Shed() != 1 {
		t.Fatalf("queued=%d shed=%d after the cancelled wait, want 0 and 1", lim.Queued(), lim.Shed())
	}
	release <- struct{}{}
	<-rec1
}

// TestWrapOrder pins the order of the layers inside Wrap: the access line
// and the recovery are outside the limiter, and the deadline inside it.
func TestWrapOrder(t *testing.T) {
	t.Run("a shed request is logged as 503", func(t *testing.T) {
		var buf strings.Builder // read once both requests are done
		release, entered := make(chan struct{}), make(chan struct{})
		h, _ := Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			close(entered)
			<-release
		}), Config{Logger: log.New(&buf, "", 0), MaxInFlight: 1, AccessLog: true})
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/held", nil))
		}()
		<-entered
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/shed", nil))
		close(release)
		<-done
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", rec.Code)
		}
		want := fmt.Sprintf("path=/shed status=503 bytes=%d ", rec.Body.Len())
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("log %q missing %q", buf.String(), want)
		}
	})
	t.Run("a panic below the limiter releases its slot", func(t *testing.T) {
		h, lim := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/panic" {
				panic("boom")
			}
		}), Config{Logger: log.New(io.Discard, "", 0), MaxInFlight: 1})
		for i := 0; i < 3; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("panic %d: status %d, want 500", i, rec.Code)
			}
		}
		if lim.InFlight() != 0 {
			t.Fatalf("InFlight() = %d after the panics, want 0", lim.InFlight())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusOK || lim.Shed() != 0 {
			t.Fatalf("after the panics: status %d, shed %d; want 200 and 0", rec.Code, lim.Shed())
		}
	})
	t.Run("a queued request's deadline has not started", func(t *testing.T) {
		const deadline, wait = time.Second, 300 * time.Millisecond
		release, entered := make(chan struct{}), make(chan struct{}, 2)
		var left time.Duration
		h, lim := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/held" {
				entered <- struct{}{}
				<-release
				return
			}
			d, _ := r.Context().Deadline()
			left = time.Until(d)
		}), Config{Logger: log.New(io.Discard, "", 0), EstimateDeadline: deadline, MaxInFlight: 1, QueueLen: 1})
		go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/held", nil))
		<-entered
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/queued", nil))
		}()
		waitFor(t, func() bool { return lim.Queued() == 1 })
		time.Sleep(wait)
		close(release)
		<-done
		// Had the clock started on arrival, at most deadline-wait would be left.
		if left <= deadline-wait/2 {
			t.Fatalf("the queued request had %v of its %v left once admitted", left, deadline)
		}
	})
}

func TestReadyGateStates(t *testing.T) {
	var g Ready
	check := func(wantCode int, wantStatus string) {
		t.Helper()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if rec.Code != wantCode {
			t.Fatalf("code %d, want %d", rec.Code, wantCode)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body["status"] != wantStatus {
			t.Fatalf("status %q, want %q", body["status"], wantStatus)
		}
	}
	check(http.StatusServiceUnavailable, "starting")
	g.SetReady()
	if !g.IsReady() {
		t.Fatal("IsReady after SetReady")
	}
	check(http.StatusOK, "ready")
	g.SetDraining()
	check(http.StatusServiceUnavailable, "draining")
}

func TestWrapComposesStack(t *testing.T) {
	var buf strings.Builder
	h, lim := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("no deadline reached the handler")
		}
		if GetRequestID(r.Context()) == "" {
			t.Error("no request ID reached the handler")
		}
		panic("wrapped boom")
	}), Config{
		Logger:           log.New(&buf, "", 0),
		EstimateDeadline: time.Second,
		CostDeadline:     500 * time.Millisecond,
		MaxInFlight:      4,
		QueueLen:         4,
		AccessLog:        true,
	})
	if lim == nil {
		t.Fatal("Wrap returned no limiter despite MaxInFlight > 0")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/estimate/select", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	// The access line records the 500 produced by the recovery, after the
	// panic line.
	log := buf.String()
	if p, a := strings.Index(log, "panic serving GET /estimate/select"), strings.Index(log, "status=500"); p < 0 || a < p {
		t.Fatalf("log %q: want the panic line, then an access line with status=500", log)
	}
	if _, lim := Wrap(okHandler(), Config{}); lim != nil {
		t.Fatal("Wrap returned a limiter with MaxInFlight zero")
	}
}

// TestAccessLineFormat: the access line and the generated request ID are
// built by appends, and read byte for byte as the Printf and Sprintf that
// built them before.
func TestAccessLineFormat(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 255, 256, 99_999, 100_000, 999_999, 1_000_000, 123_456_789, math.MaxUint64} {
		if got, want := string(appendRequestID(nil, n)), fmt.Sprintf("req-%06d", n); got != want {
			t.Errorf("request ID %d: %q, want %q", n, got, want)
		}
	}
	var out strings.Builder
	s := &wrapped{cfg: Config{Logger: log.New(&out, "", 0)}}
	for i, c := range []struct {
		method, path string
		status, n    int
		dur          time.Duration
		id           string
	}{
		{"GET", "/estimate/select", 0, 0, 0, "req-000001"},
		{"POST", "/relations/a/points", 400, 77, 499 * time.Nanosecond, "client.id:7"},
		{"GET", "/cost/join", 503, 4096, 1500 * time.Nanosecond, "x"},
		{"DELETE", "/", 200, 1 << 20, 41*time.Microsecond + 600, "req-1234567"},
		{"GET", "/plan", 500, 12, 12*time.Millisecond + 345*time.Microsecond, "req-000002"},
		{"GET", "/p", 200, 1, 3*time.Hour + 25*time.Minute + 45*time.Second + 500*time.Microsecond, "req-000003"},
		{"GET", strings.Repeat("/x", 200), 404, 9, time.Second, "req-000004"}, // past the stack buffer
	} {
		out.Reset()
		r := httptest.NewRequest(c.method, c.path, nil)
		s.logAccess(r, &statusWriter{status: c.status, bytes: c.n}, c.dur, c.id)
		status := c.status
		if status == 0 {
			status = http.StatusOK
		}
		want := fmt.Sprintf("access method=%s path=%s status=%d bytes=%d dur=%s id=%s\n",
			c.method, c.path, status, c.n, c.dur.Round(time.Microsecond), c.id)
		if out.String() != want {
			t.Errorf("line %d: %q, want %q", i, out.String(), want)
		}
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
