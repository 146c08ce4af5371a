// Package servetest serves requests the way knncostd does, for the
// allocation pins of the request path and the perf harness's rows over it.
package servetest

import (
	"io"
	"log"
	"net/http"
	"time"

	"knncost/internal/service/middleware"
)

// DaemonConfig is knncostd's middleware configuration: its deadlines,
// limiter and access log. The logger discards its lines, but through a
// writer that is not io.Discard, so it formats every one as a daemon's does.
func DaemonConfig() middleware.Config {
	return middleware.Config{
		Logger:           log.New(struct{ io.Writer }{io.Discard}, "", log.LstdFlags),
		EstimateDeadline: 5 * time.Second,
		CostDeadline:     2 * time.Second,
		AdminDeadline:    10 * time.Second,
		MaxInFlight:      256,
		QueueLen:         128,
		RetryAfter:       time.Second,
		AccessLog:        true,
	}
}

// Writer is a ResponseWriter that allocates nothing once its header map
// holds a key, so that an allocation count is the served code's alone.
// Reset it between requests.
type Writer struct {
	header http.Header
	Status int // the last WriteHeader's code
}

func NewWriter() *Writer { return &Writer{header: http.Header{}} }

func (w *Writer) Header() http.Header         { return w.header }
func (w *Writer) Write(p []byte) (int, error) { return len(p), nil }
func (w *Writer) WriteHeader(code int)        { w.Status = code }

// Reset empties the header map, keeping its storage, and the status.
func (w *Writer) Reset() { clear(w.header); w.Status = 0 }
