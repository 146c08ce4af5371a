package shard

// Replica health breaker. Transport-level failures against a replica —
// connection refused, attempt timeout, mid-body death — are counted per
// replica; BreakerFailures consecutive ones trip the breaker: the replica
// sinks to the end of every read order (it is never removed — a lone
// replica still gets the request) and a background probe re-checks its
// /healthz with jittered exponential backoff until it answers, which
// closes the breaker and restores normal ordering. Any successful HTTP
// response resets the failure count, so a flappy replica needs
// BreakerFailures failures in a row to trip again.

import (
	"context"
	"math/rand"
	"net/http"
	"time"
)

// attempt is do plus the per-attempt timeout and breaker accounting. ctx is
// the attempt's parent: when IT is cancelled (hedge settled, client gone)
// a transport error is the router's own doing and does not count against
// the replica; when only the per-attempt deadline fired, it does.
func (rt *Router) attempt(ctx context.Context, rep *replica, req proxyReq) proxyRes {
	actx := ctx
	if rt.opt.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rt.opt.AttemptTimeout)
		defer cancel()
	}
	res := rt.do(actx, rep, req)
	if res.err != nil {
		if ctx.Err() == nil {
			rt.noteFailure(rep)
		}
		return res
	}
	if res.status < 500 {
		rep.fails.Store(0)
	}
	return res
}

func (rt *Router) noteFailure(rep *replica) {
	if rt.opt.BreakerFailures < 0 {
		return
	}
	if int(rep.fails.Add(1)) < rt.opt.BreakerFailures {
		return
	}
	if rep.down.CompareAndSwap(false, true) {
		rt.breakerTrips.Add(1)
		rt.opt.logger().Printf("shard: breaker tripped for %s after %d consecutive failures",
			rep.id, rt.opt.BreakerFailures)
		go rt.probe(rep)
	}
}

// probeTimeout bounds a health probe when no AttemptTimeout is set.
const probeTimeout = 2 * time.Second

// probe polls a tripped replica's /healthz until it answers 200, then
// closes the breaker. Backoff is exponential with full jitter so a fleet
// of routers does not probe a recovering shard in lockstep. A probe is one
// attempt, bounded like one.
func (rt *Router) probe(rep *replica) {
	backoff := rt.opt.BreakerBackoff
	maxBackoff := 16 * rt.opt.BreakerBackoff
	timeout := rt.opt.AttemptTimeout
	if timeout <= 0 {
		timeout = probeTimeout
	}
	for {
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res := rt.do(ctx, rep, proxyReq{method: http.MethodGet, pathQuery: "/healthz"})
		cancel()
		if res.err == nil && res.status == http.StatusOK {
			rep.fails.Store(0)
			rep.down.Store(false)
			rt.opt.logger().Printf("shard: breaker closed for %s", rep.id)
			return
		}
		if backoff < maxBackoff {
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
}
