package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"knncost/internal/service"
)

// recorder collects what one load-generator connection observed.
type recorder struct {
	byKind    [numKinds]series
	attempted int
	failed    int
	errs      []string
}

// fail counts one failed operation and keeps the first few descriptions.
func (rec *recorder) fail(format string, args ...any) {
	rec.failed++
	if len(rec.errs) < 5 {
		rec.errs = append(rec.errs, fmt.Sprintf(format, args...))
	}
}

func (rec *recorder) merge(o *recorder) {
	for k := range rec.byKind {
		rec.byKind[k] = append(rec.byKind[k], o.byKind[k]...)
	}
	rec.attempted += o.attempted
	rec.failed += o.failed
	for _, e := range o.errs {
		if len(rec.errs) < 5 {
			rec.errs = append(rec.errs, e)
		}
	}
}

// kinds concatenates the series of the kinds pick selects.
func (rec *recorder) kinds(pick func(reqKind) bool) series {
	var out series
	for k := reqKind(0); k < numKinds; k++ {
		if pick(k) {
			out = append(out, rec.byKind[k]...)
		}
	}
	return out
}

// env is what a workload runs in: the sandbox for scratch space, how to
// build a serving stack, and the run's parameters.
type env struct {
	sp       *spec
	seed     int64
	window   time.Duration
	setups   int  // how many times to set up; the last one is measured on
	selftest bool // corrupt one expected value
	dir      string
	// newTarget starts an empty serving stack (daemons up, no relations).
	newTarget func() (target, error)
	// meter, set in the traced in-process pass only, makes connections send
	// alternate blocks of requests traced and plain, and times both.
	meter *traceMeter
}

// outcome is everything one workload run measured, by metric name.
type outcome struct {
	attempted int
	failed    int
	errs      []string
	values    map[string]float64
	counts    map[string]int // sample counts behind the timings
	tails     map[string]string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, counts: map[string]int{}, tails: map[string]string{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// timing records the p50 of ss under name and remembers the sample count
// and the highest percentile the sample supports, for the printed table.
func (o *outcome) timing(name string, ss series, unit time.Duration) {
	if len(ss) == 0 {
		return
	}
	sorted := durations(ss, unit)
	o.values[name] = percentile(sorted, 0.5)
	o.counts[name] = len(ss)
	label, v := tailLabel(sorted)
	o.tails[name] = fmt.Sprintf("%s=%.4g", label, v)
}

func (o *outcome) absorb(rec *recorder) {
	o.attempted += rec.attempted
	o.failed += rec.failed
	for _, e := range rec.errs {
		if len(o.errs) < 8 {
			o.errs = append(o.errs, e)
		}
	}
}

// setUp brings a serving stack up from nothing, env.setups times, and
// returns the last one with the median set-up time: daemon exec to every
// relation registered and ready.
func (e *env) setUp(rels []relation) (target, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		t, err := e.newTarget()
		if err != nil {
			return nil, 0, err
		}
		if err := register(t, rels); err != nil {
			t.stop()
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == e.setups-1 {
			return t, median(times), nil
		}
		t.stop()
		os.RemoveAll(t.cacheDir())
	}
}

func (e *env) conn(t target) *conn {
	return &conn{hc: t.client(), base: t.base(), meter: e.meter}
}

// exchange sends r and counts it as attempted; anything but a 200, and with
// a non-nil orc anything but the oracle's answer, counts as failed. It
// returns when the request was sent and how long the answer took, and
// whether it was a 200.
func (rec *recorder) exchange(c *conn, r *request, orc *oracle) (time.Time, time.Duration, bool) {
	c.traced = c.meter != nil && (c.sent/traceBlock)%2 == 1
	t0 := time.Now()
	status, body, err := c.do(r)
	dur := time.Since(t0)
	c.endOfRequest(r.kind, dur)
	rec.attempted++
	switch {
	case err != nil:
		rec.fail("%s %s: %v", r.method, r.path, err)
	case status != http.StatusOK:
		rec.fail("%s %s: status %d: %.200s", r.method, r.path, status, body)
	default:
		if orc != nil {
			if err := orc.check(r, body); err != nil {
				rec.fail("wrong answer: %v", err)
			}
		}
		return t0, dur, true
	}
	return t0, dur, false
}

// closedLoop drives one connection: the next request is sent only once the
// previous answer has arrived, until the window ends. One response in
// checkEvery is compared with the oracle; every response must be a 200.
func closedLoop(c *conn, st *stream, orc *oracle, begin time.Time, window time.Duration, rec *recorder) {
	end := begin.Add(window)
	for n := 0; time.Now().Before(end); n++ {
		r := st.next()
		check := orc
		if n%checkEvery != 0 {
			check = nil
		}
		if t0, dur, ok := rec.exchange(c, &r, check); ok {
			rec.byKind[r.kind] = append(rec.byKind[r.kind], sample{at: t0.Sub(begin), dur: dur})
		}
	}
}

// runServing runs a closed-loop workload: set up, warm up, measure. It
// covers point_mix, batch_scan and routed_mix.
func (e *env) runServing() (*outcome, error) {
	out := newOutcome()
	rels := genRelations(e.sp, e.seed)
	orc, err := newOracle(rels)
	if err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}
	defer orc.close()
	orc.corrupt.Store(e.selftest)

	t, setup, err := e.setUp(rels)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	out.set("setup_s", setup)

	streams := make([]*stream, connections)
	for i := range streams {
		streams[i] = newStream(e.sp, rels, e.seed, i)
	}
	// Warm-up: connections open, lazily built artifacts (staircase-c) get
	// built and the plan cache fills, none of which a long-running daemon
	// pays per request.
	e.drive(t, streams, orc, warmup(e.window), out)
	before, err := t.counters()
	if err != nil {
		return nil, err
	}
	use, err := startUsage(t, e.window/subWindows)
	if err != nil {
		return nil, err
	}
	rec := e.drive(t, streams, orc, e.window, out)
	if err := use.finish(rec, out); err != nil {
		return nil, err
	}
	if err := e.afterWindow(t, rels, before, out); err != nil {
		return nil, err
	}
	e.summarize(rec, out)
	return out, nil
}

// usage watches what the daemons consume over a measured window: their CPU
// time from start to finish, and their resident set, read several times
// because one reading catches the Go heap anywhere between two collections
// and the median does not.
type usage struct {
	t    target
	cpu  float64 // CPU seconds at the start
	rss  []float64
	err  error
	stop chan struct{}
	done chan struct{}
}

// startUsage begins a window. With every > 0 the resident set is sampled
// in the background at that period; otherwise the caller calls sample.
func startUsage(t target, every time.Duration) (*usage, error) {
	cpu, err := t.cpuSeconds()
	if err != nil {
		return nil, err
	}
	u := &usage{t: t, cpu: cpu, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(u.done)
		if every <= 0 {
			return
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-u.stop:
				return
			case <-tick.C:
				u.sample()
			}
		}
	}()
	return u, nil
}

func (u *usage) sample() {
	mb, err := u.t.rssMB()
	if err != nil {
		u.err = err
		return
	}
	u.rss = append(u.rss, mb)
}

// finish ends the window and records rss_mb and, per request that rec saw
// answered, cpu_us_per_op.
func (u *usage) finish(rec *recorder, out *outcome) error {
	close(u.stop)
	<-u.done
	u.sample() // the end of the window, and the only reading of a very short one
	if u.err != nil {
		return u.err
	}
	out.set("rss_mb", median(u.rss))
	after, err := u.t.cpuSeconds()
	if err != nil {
		return err
	}
	if done := rec.attempted - rec.failed; done > 0 {
		out.set("cpu_us_per_op", (after-u.cpu)*1e6/float64(done))
		out.counts["cpu_us_per_op"] = done
	}
	return nil
}

// warmup is the length of the unmeasured lead-in.
func warmup(window time.Duration) time.Duration {
	w := window / 10
	if w > time.Second {
		w = time.Second
	}
	return w
}

// drive runs every connection's closed loop for window, counts the
// failures into out and returns what the connections recorded.
func (e *env) drive(t target, streams []*stream, orc *oracle, window time.Duration, out *outcome) *recorder {
	recs := make([]recorder, len(streams))
	begin := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closedLoop(e.conn(t), streams[i], orc, begin, window, &recs[i])
		}(i)
	}
	wg.Wait()
	all := &recorder{}
	for i := range recs {
		all.merge(&recs[i])
	}
	out.absorb(all)
	return all
}

// summarize turns the window's samples into the latency and throughput
// metrics. A route's timing is reported only when the workload sent it.
func (e *env) summarize(rec *recorder, out *outcome) {
	all := rec.kinds(func(reqKind) bool { return true })
	starts := make([]time.Duration, len(all))
	for i, s := range all {
		starts[i] = s.at
	}
	out.set("ops_per_s", windowedRate(starts, e.window))
	out.counts["ops_per_s"] = len(starts)

	selects := rec.kinds(reqKind.isSelect)
	out.timing("select_p50_us", selects, time.Microsecond)
	if len(selects) > 0 {
		out.set("select_p99_us", windowedP99(selects, e.window, time.Microsecond))
		out.counts["select_p99_us"] = len(selects)
	}
	out.timing("join_p50_us", rec.kinds(reqKind.isLookupJoin), time.Microsecond)
	out.timing("join_aknn_p50_ms", rec.byKind[kJoinAknn], time.Millisecond)
	out.timing("join_blocksample_p50_ms", rec.byKind[kJoinBlockSample], time.Millisecond)
	out.timing("plan_p50_us", rec.byKind[kPlan], time.Microsecond)
	out.timing("batch_p50_ms", rec.byKind[kBatch], time.Millisecond)
}

// afterWindow reads what the stack reports about itself at the end of the
// measured window: disk, and counter deltas since `before`.
func (e *env) afterWindow(t target, rels []relation, before map[string]float64, out *outcome) error {
	files, size, err := dirUsage(t.cacheDir())
	if err != nil {
		return err
	}
	live := 0
	c := e.conn(t)
	for i := range rels {
		info, err := relationStatus(c, rels[i].name)
		if err != nil {
			return err
		}
		live += info.NumPoints
	}
	out.set("disk_bytes_per_point_byte", float64(size)/float64(16*live))
	out.set("store.cache_files", float64(files))
	out.set("store.cache_bytes", float64(size))

	if before == nil {
		return nil // the daemon was restarted: its counters started over
	}
	after, err := t.counters()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	out.set("store.catalog_builds", delta("knncost_catalog_builds"))
	out.set("store.compactions", delta("knncost_compactions"))
	if c := delta("knncost_compactions"); c > 0 {
		out.set("store.builds_per_publish", delta("knncost_catalog_builds")/c)
	}
	if a := delta("knncost_wal_appends"); a > 0 {
		out.set("wal.fsyncs_per_append", delta("knncost_wal_fsyncs")/a)
	}
	hits, misses := delta("knncost_plan_cache_hits"), delta("knncost_plan_cache_misses")
	if hits+misses > 0 {
		out.set("optimizer.cache_hit_ratio", hits/(hits+misses))
	}
	out.set("shard.hedges", delta("knnrouter_hedges"))
	out.set("shard.hedge_wins", delta("knnrouter_hedge_wins"))
	if a, b := delta("knnrouter_requests.a"), delta("knnrouter_requests.b"); a+b > 0 {
		out.set("shard.requests_skew", math.Max(a, b)/((a+b)/2))
	}
	if m, ok := t.(*memTarget); ok {
		out.set("middleware.shed", float64(m.shed()))
	}
	return nil
}

// runFleet runs fleet_restart: many small relations, then for the whole
// window cycles of SIGKILL, restart, ready and one select per relation, with
// every answer checked. The window is the cycles themselves, so its
// throughput counts the time the node was down.
func (e *env) runFleet() (*outcome, error) {
	out := newOutcome()
	rels := genRelations(e.sp, e.seed)
	touches := firstTouch(rels, e.seed)
	orc, err := newFixedOracle(rels, touches)
	if err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}
	orc.corrupt.Store(e.selftest)
	t, setup, err := e.setUp(rels)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	out.set("setup_s", setup)

	use, err := startUsage(t, 0) // read after every cycle: in between, the node is down
	if err != nil {
		return nil, err
	}
	var ready, cycle []float64
	var first series
	rec := &recorder{}
	c := e.conn(t)
	begin := time.Now()
	for i := 0; i < 2 || time.Since(begin) < e.window; i++ {
		start := time.Now()
		d, err := t.restart()
		if err != nil {
			return nil, fmt.Errorf("restart cycle %d: %w", i, err)
		}
		ready = append(ready, d.Seconds())
		for j := range touches {
			if t0, dur, ok := rec.exchange(c, &touches[j], orc); ok {
				first = append(first, sample{at: t0.Sub(begin), dur: dur})
			}
		}
		cycle = append(cycle, time.Since(start).Seconds())
		use.sample()
	}
	out.absorb(rec)
	if err := use.finish(rec, out); err != nil {
		return nil, err
	}
	out.set("restart_ready_s", median(ready))
	out.counts["restart_ready_s"] = len(ready)
	out.timing("first_touch_p50_us", first, time.Microsecond)
	out.set("ops_per_s", float64(len(touches))/median(cycle))
	out.counts["ops_per_s"] = len(first)
	if err := e.afterRestart(t, out); err != nil {
		return nil, err
	}
	// Disk is read under the last restarted daemon.
	return out, e.afterWindow(t, rels, nil, out)
}

// afterRestart reads what a restarted node says about how it came up.
func (e *env) afterRestart(t target, out *outcome) error {
	n, err := t.mappings()
	if err != nil {
		return err
	}
	out.set("mmapfile.mappings", float64(n))
	after, err := t.counters()
	if err != nil {
		return err
	}
	out.set("store.cache_hits", after["knncost_cache_hits"])
	out.set("wal.replayed", after["knncost_wal_replayed"])
	return nil
}

// writerLog is what the open-loop writer observed. Mutations are in flight
// concurrently, so mu guards every field.
type writerLog struct {
	mu  sync.Mutex
	rec recorder
	// acked are the acknowledged mutations in order of acknowledgement. Two
	// in flight at once are an append and a delete of different batches,
	// which commute, so this is also an order the store can have applied.
	acked   []request
	ack     series    // due → acknowledged
	visible series    // acknowledged → seen compacted
	late    series    // due → handed to the connection
	ages    []float64 // delta_age_ms of every acknowledgement
	vis     map[string]*relVisibility
}

// relVisibility tracks, for one relation, which acknowledged mutations are
// known to be folded into the published snapshot. One writer per relation
// makes the pending mutations a FIFO suffix of the acknowledged ones, so a
// response reporting delta_ops = d after the n-th acknowledgement proves
// the first n-d are visible. (A mutation applied but not yet acknowledged
// makes that an undercount, which the next response corrects.)
type relVisibility struct {
	acks    []time.Time
	visible int
}

// openLoopWriter issues mutation j at begin + j/writeRate whatever happened
// to the previous ones: each goes out on its own goroutine, so a slow
// acknowledgement delays nothing behind it, and each is timed from the
// instant it was due. The mutations share the client's connection pool with
// the reader, so there are never more than `connections` connections; one
// that finds none free waits in the client, inside its own latency.
func openLoopWriter(newConn func() *conn, ms *mutationStream, begin time.Time, window time.Duration, wl *writerLog) {
	interval := time.Second / writeRate
	var wg sync.WaitGroup
	defer wg.Wait()
	for j := 0; ; j++ {
		due := begin.Add(time.Duration(j) * interval)
		if due.Sub(begin) >= window {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait) // open-loop pacing: waits for the schedule, simulates nothing
		}
		r := ms.next()
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl.send(newConn(), &r, begin, due)
		}()
	}
}

// send performs one mutation, books what it observed, and then watches the
// relation's status until the mutation is seen compacted.
func (wl *writerLog) send(c *conn, r *request, begin, due time.Time) {
	sent := time.Now()
	status, body, err := c.do(r)
	acked := time.Now()
	var info service.RelationInfo
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &info)
	}
	wl.mu.Lock()
	wl.rec.attempted++
	wl.late = append(wl.late, sample{at: due.Sub(begin), dur: sent.Sub(due)})
	if err != nil || status != http.StatusOK {
		wl.rec.fail("%s %s: status %d: %v %.200s", r.method, r.path, status, err, body)
		wl.mu.Unlock()
		return
	}
	at := due.Sub(begin)
	wl.ack = append(wl.ack, sample{at: at, dur: acked.Sub(due)})
	wl.acked = append(wl.acked, *r)
	wl.ages = append(wl.ages, float64(info.DeltaAgeMs))
	v := wl.vis[r.rel]
	if v == nil {
		v = &relVisibility{}
		wl.vis[r.rel] = v
	}
	v.acks = append(v.acks, acked)
	mine := len(v.acks)
	wl.observe(v, info.DeltaOps, at, acked)
	wl.mu.Unlock()

	for deadline := acked.Add(visibleTimeout); ; {
		wl.mu.Lock()
		seen := v.visible >= mine
		wl.mu.Unlock()
		if seen || time.Now().After(deadline) {
			return
		}
		time.Sleep(visiblePoll) // poll pacing, not measured work
		info, err := relationStatus(c, r.rel)
		if err != nil {
			return // the window's requests are what is counted, not this probe
		}
		wl.mu.Lock()
		wl.observe(v, info.DeltaOps, at, time.Now())
		wl.mu.Unlock()
	}
}

// observe books a response that reported deltaOps pending mutations on v's
// relation at time now: all but the last deltaOps acknowledged ones are
// compacted. wl.mu must be held.
func (wl *writerLog) observe(v *relVisibility, deltaOps int, at time.Duration, now time.Time) {
	for n := len(v.acks) - deltaOps; v.visible < n; v.visible++ {
		wl.visible = append(wl.visible, sample{at: at, dur: now.Sub(v.acks[v.visible])})
	}
}

// runIngest runs ingest_mixed: an open-loop writer beside a closed-loop
// reader, then a SIGKILL with mutations still uncompacted, a restart that
// must replay them, and a comparison of the stored points with the model
// of acknowledged mutations.
func (e *env) runIngest() (*outcome, error) {
	out := newOutcome()
	rels := genRelations(e.sp, e.seed)
	t, setup, err := e.setUp(rels)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	out.set("setup_s", setup)

	reader := newStream(e.sp, rels, e.seed, 0)
	// Mutations change the answers, so during the window the reader checks
	// only that every response is a 200; exact answers are checked after.
	ms := newMutationStream(rels, e.seed)
	wlog := &writerLog{vis: map[string]*relVisibility{}}
	both := func(window time.Duration) *recorder {
		var readRec recorder
		begin := time.Now()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			closedLoop(e.conn(t), reader, nil, begin, window, &readRec)
		}()
		go func() {
			defer wg.Done()
			openLoopWriter(func() *conn { return e.conn(t) }, ms, begin, window, wlog)
		}()
		wg.Wait()
		out.absorb(&readRec)
		out.absorb(&wlog.rec)
		return &readRec
	}
	// The warm-up runs the writer too: a reader that has both cores to
	// itself is not the state this workload measures.
	both(ingestWarmup)
	wlog = &writerLog{acked: wlog.acked, vis: wlog.vis}
	before, err := t.counters()
	if err != nil {
		return nil, err
	}
	use, err := startUsage(t, e.window/subWindows)
	if err != nil {
		return nil, err
	}
	readRec := both(e.window)
	if err := use.finish(readRec, out); err != nil {
		return nil, err
	}

	// The fixed write rate was delivered only if the backlog stayed bounded.
	c := e.conn(t)
	backlog := 0
	for i := range rels {
		info, err := relationStatus(c, rels[i].name)
		if err != nil {
			return nil, err
		}
		backlog = max(backlog, info.DeltaPoints)
	}
	out.set("store.backlog_points", float64(backlog))
	if len(wlog.ages) > 0 {
		out.set("store.delta_age_p50_ms", median(wlog.ages))
	}
	out.attempted++
	if backlog > 2*compactThreshold {
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf("backlog of %d delta points exceeds %d: the write rate was not absorbed", backlog, 2*compactThreshold))
	}
	if err := e.afterWindow(t, rels, before, out); err != nil {
		return nil, err
	}
	e.summarize(readRec, out)
	out.timing("append_ack_p50_ms", wlog.ack, time.Millisecond)
	if len(wlog.ack) > 0 {
		out.set("append_ack_p99_ms", percentile(durations(wlog.ack, time.Millisecond), 0.99))
		out.counts["append_ack_p99_ms"] = len(wlog.ack)
	}
	out.timing("append_visible_p50_ms", wlog.visible, time.Millisecond)
	// The write rate was the fixed one only if the generator kept its
	// schedule; one that did not is one more failed operation. The check is
	// on the median lateness: a window has forty mutations, so their p99 is
	// their maximum and their p90 the fourth worst, and in the machine's
	// slow periods stalls of 5 to 60 ms hit that many without the generator
	// being behind.
	lates := durations(wlog.late, time.Millisecond)
	out.set("loadgen.late_p99_ms", percentile(lates, 0.99))
	out.attempted++
	if late := percentile(lates, 0.5); !(late < float64(lateLimit)/float64(time.Millisecond)) {
		out.failed++
		out.errs = append(out.errs, fmt.Sprintf("the writer ran %.2f ms late at the median, limit %v: the write rate was not delivered", late, lateLimit))
	}

	// Kill with acknowledged mutations still uncompacted, so that every
	// restart has to replay them from the WAL; after each, the stored points
	// must equal the model of acknowledged mutations.
	models := map[string]*pointModel{}
	for i := range rels {
		models[rels[i].name] = &pointModel{pts: append(rels[i].pts[:0:0], rels[i].pts...)}
	}
	applied := 0
	var ready []float64
	for cycle := 0; cycle < ingestRestartCycles; cycle++ {
		burst := &recorder{}
		for i := 0; i < burstMutations; i++ {
			r := ms.next()
			status, body, err := c.do(&r)
			burst.attempted++
			if err != nil || status != http.StatusOK {
				burst.fail("%s %s: status %d: %v %.200s", r.method, r.path, status, err, body)
				continue
			}
			wlog.acked = append(wlog.acked, r)
		}
		out.absorb(burst)
		for ; applied < len(wlog.acked); applied++ {
			models[wlog.acked[applied].rel].apply(&wlog.acked[applied])
		}
		d, err := t.restart()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		ready = append(ready, d.Seconds())
		c = e.conn(t)
		for i := range rels {
			name := rels[i].name
			status, body, err := c.do(&request{method: http.MethodGet, path: "/relations/" + name + "/points"})
			out.attempted++
			if err == nil && status == http.StatusOK {
				err = models[name].equalPoints(body)
			} else if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				out.failed++
				out.errs = append(out.errs, fmt.Sprintf("points of %s after restart %d: %v", name, cycle, err))
			}
		}
	}
	out.set("restart_ready_s", median(ready))
	out.counts["restart_ready_s"] = len(ready)
	if err := e.afterRestart(t, out); err != nil {
		return nil, err
	}
	final := make([]relation, len(rels))
	for i := range rels {
		final[i] = relation{name: rels[i].name, pts: models[rels[i].name].pts}
	}

	// Once the replayed mutations are compacted, the daemon's estimates must
	// equal those of the model's points built from scratch.
	if err := waitSettled(c, final); err != nil {
		return nil, err
	}
	orc, err := newOracle(final)
	if err != nil {
		return nil, fmt.Errorf("building the oracle: %w", err)
	}
	defer orc.close()
	orc.corrupt.Store(e.selftest)
	e.verify(t, final, orc, 64*len(final), out)
	return out, nil
}

// verify sends n selects over rels and checks every answer.
func (e *env) verify(t target, rels []relation, orc *oracle, n int, out *outcome) {
	st := newStream(&spec{mix: []mixEntry{{kSelect, 1}, {kSelectDensity, 1}}}, rels, e.seed, 98)
	c := e.conn(t)
	rec := &recorder{}
	for i := 0; i < n; i++ {
		r := st.next()
		rec.exchange(c, &r, orc)
	}
	out.absorb(rec)
}

// waitSettled polls until no relation has pending mutations.
func waitSettled(c *conn, rels []relation) error {
	deadline := time.Now().Add(setupTimeout)
	for i := range rels {
		for {
			info, err := relationStatus(c, rels[i].name)
			if err != nil {
				return err
			}
			if info.DeltaOps == 0 && info.State == "ready" && info.NumPoints == len(rels[i].pts) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not settle within %v", rels[i].name, setupTimeout)
			}
			time.Sleep(2 * time.Millisecond) // poll pacing, not measured work
		}
	}
	return nil
}
