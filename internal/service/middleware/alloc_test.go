package middleware_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"knncost/internal/service/middleware"
	"knncost/internal/service/servetest"
)

// TestWrapAllocs pins the heap allocations of one request through Wrap at
// knncostd's configuration, access log on, around a handler that does
// nothing: it is the middleware's share of every served request. They are
// the request's one per-request value, its generated ID, the request copy
// that carries the context and the access line handed to the logger. The
// writer is reused, so the count is the middleware's alone: 11 when the
// status writer, the ID header's slice, the context value and the timer
// context were each their own allocation (15 with an
// httptest.ResponseRecorder per request).
func TestWrapAllocs(t *testing.T) {
	if middleware.RaceEnabled {
		t.Skip("the race detector's allocations count as the handler's")
	}
	h, _ := middleware.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), servetest.DaemonConfig())
	w := servetest.NewWriter()
	for _, path := range []string{"/estimate/select", "/cost/select", "/relations"} {
		req := httptest.NewRequest("GET", path, nil)
		got := testing.AllocsPerRun(200, func() { w.Reset(); h.ServeHTTP(w, req) })
		if got > 4 {
			t.Errorf("%s: %v allocations per request, want at most 4", path, got)
		}
	}
}
