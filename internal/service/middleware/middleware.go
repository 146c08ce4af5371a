// Package middleware hardens the estimation service for production traffic.
// The paper motivates cost estimation for "location-based services that
// serve multiple queries at very high rates"; at those rates a single
// panicking handler, one slow ground-truth computation, or a burst beyond
// capacity must degrade the service, not destroy it. Wrap puts one handler
// in front of the service that does, for every request, in this order:
//
//   - request ID: a well-formed client X-Request-ID is honored, any other
//     request gets a fresh one; it is echoed and put in the context;
//   - access log: one line per request (method, path, status, bytes,
//     duration, id);
//   - panic recovery: a panic becomes a JSON 500 and a logged stack;
//   - admission (Limiter): a bound on concurrent requests, a short queue,
//     and 503 + Retry-After for the excess instead of unbounded queueing;
//   - deadline: a context deadline chosen by route (stricter for the
//     ground-truth /cost/* routes than for /estimate/*), which the
//     block-scan loops of internal/knn and internal/knnjoin observe.
//
// Ready is the readiness gate behind /readyz: 503 while catalogs build and
// during graceful drain. cmd/knncostd and the fault-injection tests share
// the exact same Wrap.
package middleware

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config collects the knobs of the handler built by Wrap.
type Config struct {
	// Logger receives panic stacks and access lines. Nil means the
	// standard logger.
	Logger *log.Logger
	// EstimateDeadline bounds /estimate/* requests (and any path without
	// a more specific rule). Zero disables the deadline.
	EstimateDeadline time.Duration
	// CostDeadline bounds the expensive ground-truth /cost/* requests.
	// It is typically stricter than EstimateDeadline: executing the full
	// distance-browsing or locality computation is the one thing a loaded
	// server must not let run away. Zero disables the deadline.
	CostDeadline time.Duration
	// AdminDeadline bounds the /relations admin routes. Registration reads
	// and validates a potentially large payload but only enqueues the
	// build, so it deserves its own budget independent of the estimate
	// routes. Zero falls back to EstimateDeadline.
	AdminDeadline time.Duration
	// MaxInFlight bounds concurrently served requests. Zero disables
	// load shedding.
	MaxInFlight int
	// QueueLen is the admission-queue length on top of MaxInFlight;
	// arrivals beyond MaxInFlight+QueueLen are shed with 503.
	QueueLen int
	// RetryAfter is the value of the Retry-After header on shed
	// responses. Zero means 1 second.
	RetryAfter time.Duration
	// AccessLog enables the per-request log line.
	AccessLog bool
}

// deadline returns the budget of a request for path; zero means none.
func (c Config) deadline(path string) time.Duration {
	switch {
	case strings.HasPrefix(path, "/cost/"):
		return c.CostDeadline
	case strings.HasPrefix(path, "/relations") && c.AdminDeadline > 0:
		return c.AdminDeadline
	}
	return c.EstimateDeadline
}

// wrapped is the handler Wrap returns.
type wrapped struct {
	next http.Handler
	cfg  Config   // with a non-nil Logger
	lim  *Limiter // nil when MaxInFlight is zero
}

// Wrap returns the production handler around h. It returns the handler's
// Limiter so callers can observe in-flight, queued and shed counts (nil
// when MaxInFlight is zero).
func Wrap(h http.Handler, cfg Config) (http.Handler, *Limiter) {
	s := &wrapped{next: h, cfg: cfg}
	if s.cfg.Logger == nil {
		s.cfg.Logger = log.Default()
	}
	if cfg.MaxInFlight > 0 {
		s.lim = newLimiter(cfg.MaxInFlight, cfg.QueueLen, cfg.RetryAfter)
	}
	return s, s.lim
}

// ServeHTTP serves r through the package's layers in their one order.
// Admission comes before the deadline clock starts (a queued request
// should not consume its compute budget while waiting for a slot), and the
// deferred recovery sits outside both, so a panic anywhere below becomes a
// JSON 500 that the access line records. Handlers below must propagate
// r.Context() into their work for the deadline to have teeth; see
// knn.SelectCostContext and friends.
func (s *wrapped) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Everything the layers keep for the request is this one allocation.
	rq := &request{sw: statusWriter{ResponseWriter: w}}
	sw := &rq.sw
	id := r.Header.Get(requestIDHeader)
	if !validRequestID(id) {
		var buf [24]byte
		id = string(appendRequestID(buf[:0], idCounter.Add(1)))
	}
	// Set, without the slice it would allocate for the value.
	rq.idHeader[0] = id
	w.Header()[requestIDHeader] = rq.idHeader[:]
	start := time.Now()
	defer func() {
		// http.ErrAbortHandler is re-raised as net/http's documented way
		// to abort a response, and is not logged.
		if rec := recover(); rec == http.ErrAbortHandler {
			panic(rec)
		} else if rec != nil {
			s.cfg.Logger.Printf("panic serving %s %s (id=%s): %v\n%s",
				r.Method, r.URL.Path, id, rec, debug.Stack())
			// A response already started cannot become a 500.
			if sw.status == 0 {
				sw.Header().Set("Content-Type", "application/json")
				sw.WriteHeader(http.StatusInternalServerError)
				fmt.Fprintf(sw, "{\"error\":%s}\n", strconv.Quote(fmt.Sprintf("internal error: %v", rec)))
			}
		}
		if s.cfg.AccessLog {
			s.logAccess(r, sw, time.Since(start), id)
		}
	}()
	if s.lim != nil {
		if !s.lim.admit(sw, r) {
			return
		}
		defer s.lim.release()
	}
	rq.ctx.parent, rq.ctx.id = r.Context(), id
	if d := s.cfg.deadline(r.URL.Path); d > 0 {
		rq.ctx.deadline = time.Now().Add(d)
		defer rq.ctx.finish()
	}
	s.next.ServeHTTP(sw, r.WithContext(&rq.ctx))
}

// request is what Wrap keeps for one request, allocated once: the status
// writer, the X-Request-Id value slice the response header holds, and the
// request's context.
type request struct {
	sw       statusWriter
	idHeader [1]string
	ctx      requestContext
}

// requestContext is a request's context: its parent (the server's, which a
// client disconnect cancels) with the request ID and the route's deadline.
// It reports the deadline at once but arms a timer only when something asks
// whether it is done: the first Done or Err derives
// context.WithDeadline(parent, deadline), and both answer from that from
// then on. An estimate that never asks pays for no timer; a scan that polls
// Err, a batch and an outgoing call get the standard library's semantics.
// finish cancels it as the cancel of context.WithTimeout did when the
// request returned.
type requestContext struct {
	parent   context.Context
	id       string
	deadline time.Time // zero: the route has none, and Done and Err are the parent's

	armed    atomic.Bool // timed is set
	mu       sync.Mutex  // guards the fields below, and arming
	timed    context.Context
	cancel   context.CancelFunc
	finished bool
}

// Deadline is the earlier of the route's deadline and the parent's, as
// context.WithDeadline reports it.
func (c *requestContext) Deadline() (time.Time, bool) {
	d, ok := c.parent.Deadline()
	if c.deadline.IsZero() || ok && d.Before(c.deadline) {
		return d, ok
	}
	return c.deadline, true
}

func (c *requestContext) Done() <-chan struct{} {
	if c.deadline.IsZero() {
		return c.parent.Done()
	}
	return c.arm().Done()
}

func (c *requestContext) Err() error {
	if c.deadline.IsZero() {
		return c.parent.Err()
	}
	return c.arm().Err()
}

// Value answers the request ID's key with c itself, which GetRequestID
// reads, and every other key as the context Done and Err answer from: once
// armed, that is the timer context, which a context derived from c then
// finds by its cancel key and joins, with no goroutine to watch c.
func (c *requestContext) Value(key any) any {
	if key == requestIDKey {
		return c
	}
	if c.armed.Load() {
		return c.timed.Value(key)
	}
	return c.parent.Value(key)
}

// arm returns the parent with the deadline, deriving it the first time.
func (c *requestContext) arm() context.Context {
	if c.armed.Load() {
		return c.timed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed.Load() {
		c.timed, c.cancel = context.WithDeadline(c.parent, c.deadline)
		if c.finished {
			c.cancel()
		}
		c.armed.Store(true)
	}
	return c.timed
}

// finish ends the request: an armed context is cancelled, and one armed
// later is born cancelled.
func (c *requestContext) finish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished = true
	if c.armed.Load() {
		c.cancel()
	}
}

// logAccess writes the access line of a request served in dur:
//
//	access method=GET path=/estimate/select status=200 bytes=83 dur=41µs id=req-000001
//
// built by appends into a buffer on the stack rather than by Printf, which
// boxes each of its six arguments.
func (s *wrapped) logAccess(r *http.Request, sw *statusWriter, dur time.Duration, id string) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	var buf [256]byte
	b := append(append(buf[:0], "access method="...), r.Method...)
	b = append(append(b, " path="...), r.URL.Path...)
	b = strconv.AppendInt(append(b, " status="...), int64(status), 10)
	b = strconv.AppendInt(append(b, " bytes="...), int64(sw.bytes), 10)
	// Duration.String inlines, so the string it appends stays on the stack.
	b = append(append(b, " dur="...), dur.Round(time.Microsecond).String()...)
	b = append(append(b, " id="...), id...)
	s.cfg.Logger.Output(2, string(b))
}

// --- request IDs -----------------------------------------------------------

// requestIDHeader is X-Request-ID in its canonical form, which the header
// map looks up without canonicalising it again.
const requestIDHeader = "X-Request-Id"

type ctxKey int

const requestIDKey ctxKey = 0

// idCounter makes request IDs unique within a process.
var idCounter atomic.Uint64

// appendRequestID appends the ID generated for the n-th request without
// one: "req-" and n in at least six digits, zero-padded.
func appendRequestID(buf []byte, n uint64) []byte {
	buf = append(buf, "req-"...)
	for w := uint64(100000); w > 1 && n < w; w /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendUint(buf, n, 10)
}

// GetRequestID returns the request ID Wrap put in ctx, or "" when the
// request did not pass through Wrap.
func GetRequestID(ctx context.Context) string {
	if c, ok := ctx.Value(requestIDKey).(*requestContext); ok {
		return c.id
	}
	return ""
}

// validRequestID reports whether a client-supplied ID may be honored, so
// that IDs can follow a request across services: 1–64 bytes of
// [A-Za-z0-9._:-]. Anything else — spaces, tabs and "=" above all — could
// forge fields of the access and panic lines the ID is written into.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// statusWriter records the status code and byte count written through it,
// for the access line and for the recovery, which must not write a 500
// over a response that has started.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// Flush forwards to the underlying writer when it supports flushing, so the
// wrapper does not hide streaming capability.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// --- load shedding ---------------------------------------------------------

// Limiter bounds concurrent requests at maxInFlight, admits up to queueLen
// more into a waiting queue, and sheds everything beyond that with
// 503 Service Unavailable + Retry-After. Queued requests whose context is
// cancelled (client gone, deadline hit upstream) leave the queue with a 503
// rather than occupying a slot for a reply nobody will read.
type Limiter struct {
	sem        chan struct{}
	queueLen   int64
	queued     atomic.Int64
	inFlight   atomic.Int64
	shed       atomic.Int64
	retryAfter string
}

// newLimiter creates a Limiter. retryAfter <= 0 defaults to one second
// (Retry-After is expressed in whole seconds and rounded, at least 1).
func newLimiter(maxInFlight, queueLen int, retryAfter time.Duration) *Limiter {
	secs := max(int(retryAfter.Round(time.Second)/time.Second), 1)
	return &Limiter{
		sem:        make(chan struct{}, max(maxInFlight, 1)),
		queueLen:   int64(max(queueLen, 0)),
		retryAfter: strconv.Itoa(secs),
	}
}

// InFlight returns the number of requests currently being served.
func (l *Limiter) InFlight() int { return int(l.inFlight.Load()) }

// Queued returns the number of requests waiting for admission.
func (l *Limiter) Queued() int { return int(l.queued.Load()) }

// Shed returns the total number of requests rejected with 503 so far.
func (l *Limiter) Shed() int { return int(l.shed.Load()) }

// admit takes a slot for r, waiting in the queue while every slot is busy.
// It reports false, having written the 503, when the queue is full or r's
// context ends first; a true admit must be followed by one release.
func (l *Limiter) admit(w http.ResponseWriter, r *http.Request) bool {
	select {
	case l.sem <- struct{}{}: // fast path: a slot is free
	default:
		// Queue, unless the queue is already full.
		if l.queued.Add(1) > l.queueLen {
			l.queued.Add(-1)
			l.reject(w)
			return false
		}
		select {
		case l.sem <- struct{}{}:
			l.queued.Add(-1)
		case <-r.Context().Done():
			l.queued.Add(-1)
			l.reject(w)
			return false
		}
	}
	l.inFlight.Add(1)
	return true
}

// release frees the slot of an admitted request.
func (l *Limiter) release() {
	l.inFlight.Add(-1)
	<-l.sem
}

func (l *Limiter) reject(w http.ResponseWriter) {
	l.shed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", l.retryAfter)
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, `{"error":"server overloaded, retry later"}`)
}

// --- readiness gate --------------------------------------------------------

// Ready is the tri-state readiness gate behind a /readyz endpoint. A fresh
// Ready reports "starting" (503) so orchestrators do not route traffic while
// catalogs build; SetReady flips it to 200; SetDraining flips it back to 503
// for the graceful-shutdown window so load balancers stop sending new work
// before the listener closes. Liveness (/healthz) is separate and should be
// 200 for the whole lifetime of the process.
type Ready struct {
	state atomic.Int32 // 0 starting, 1 ready, 2 draining
}

// SetReady marks the gate ready; /readyz starts returning 200.
func (g *Ready) SetReady() { g.state.Store(1) }

// SetDraining marks the gate draining; /readyz returns 503 again.
func (g *Ready) SetDraining() { g.state.Store(2) }

// IsReady reports whether the gate is in the ready state.
func (g *Ready) IsReady() bool { return g.state.Load() == 1 }

// Handler serves the /readyz response for the gate's current state.
func (g *Ready) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch g.state.Load() {
		case 1:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, `{"status":"ready"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"draining"}`)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"status":"starting"}`)
		}
	})
}
