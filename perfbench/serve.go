package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/study"
	"repro/internal/studyd"
	"repro/internal/world"
)

// serveKey is one /report slice of the fixed key set.
type serveKey struct {
	Query  string // URL query, "" for the unfiltered report
	Filter *segstore.Filter
}

// serveKeys is the /report key set for w: the unfiltered report (a full
// scan) plus a country slice (a full scan with a row filter), a PoP slice
// (pruned at the manifest) and a from= slice of the later half of the
// days (pruned too). The country and the PoP are the ones whose share of
// the world's traffic weight is nearest a quarter, so every seed's slices
// select about as much data.
func serveKeys(w *world.World) ([]serveKey, error) {
	type slice struct {
		from         time.Duration
		country, pop string
	}
	slices := []slice{
		{},
		{country: nearestShare(w, func(g *world.Group) string { return g.Country }, 0.25)},
		{pop: nearestShare(w, func(g *world.Group) string { return g.PoP }, 0.25)},
		{from: time.Duration(max(w.Cfg.Days/2, 1)) * 24 * time.Hour},
	}
	var keys []serveKey
	for _, s := range slices {
		f, err := segstore.ParseFilter(s.from, 0, s.country, s.pop)
		if err != nil {
			return nil, err
		}
		q := url.Values{}
		if s.country != "" {
			q.Set("country", s.country)
		}
		if s.pop != "" {
			q.Set("pop", s.pop)
		}
		if s.from > 0 {
			q.Set("from", s.from.String())
		}
		keys = append(keys, serveKey{Query: q.Encode(), Filter: f})
	}
	return keys, nil
}

// nearestShare returns the value of attr whose groups carry the share of
// w's total traffic weight nearest target (ties to the smaller value).
func nearestShare(w *world.World, attr func(*world.Group) string, target float64) string {
	weight := map[string]float64{}
	var total float64
	for _, g := range w.Groups {
		weight[attr(g)] += g.Weight
		total += g.Weight
	}
	best, bestGap := "", math.Inf(1)
	for v, wt := range weight {
		gap := math.Abs(wt/total - target)
		if gap < bestGap || (gap == bestGap && v < best) {
			best, bestGap = v, gap
		}
	}
	return best
}

// request is one open-loop request: when it was due, when the
// generator actually sent it, when its response completed, and the
// X-Cache state it came back with.
type request struct {
	Key   int
	Due   time.Time
	Sent  time.Time
	Done  time.Time
	State string
	Err   error
}

func (r request) latency() time.Duration  { return r.Done.Sub(r.Due) }
func (r request) lateness() time.Duration { return r.Sent.Sub(r.Due) }

// openLoop issues n requests on a fixed schedule — request i is due at
// start + i/rate whatever happened to earlier ones — from conns
// workers, each owning one connection. A worker takes the next request
// when it is free; a request whose worker was busy past its due time
// is sent late, and its latency still counts from the due time, so a
// stall is charged to every request it delays. key picks request i's
// key; do sends it and returns its X-Cache state.
func openLoop(ctx context.Context, n int, rate float64, start time.Time, conns int,
	key func(i int) int, do func(worker, key int) (string, error)) []request {
	reqs := make([]request, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				r := &reqs[i]
				r.Key = key(i)
				r.Due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(r.Due); d > 0 {
					time.Sleep(d)
				}
				r.Sent = time.Now()
				r.State, r.Err = do(wk, r.Key)
				r.Done = time.Now()
			}
		}(wk)
	}
	wg.Wait()
	return reqs[:min(int(next.Load()), n)]
}

// bump is one spool version becoming visible: the benchmark observes
// it when a chunk-closing Seal returns.
type bump struct {
	Version int64
	At      time.Time
}

// freshLags attributes each (key, bump) pair its fresh lag: the time
// from the bump to the first completed response for that key that was
// sent at or after the bump and came back fresh (X-Cache hit or miss —
// either is built at a version no older than the bump). Pairs that no
// such response resolves are returned by their bump, not guessed.
func freshLags(bumps []bump, reqs []request, keys int) (lags []float64, unresolved []bump) {
	for _, b := range bumps {
		for k := 0; k < keys; k++ {
			var first time.Time
			for _, r := range reqs {
				if r.Key != k || r.Err != nil || (r.State != "hit" && r.State != "miss") || r.Sent.Before(b.At) {
					continue
				}
				if first.IsZero() || r.Done.Before(first) {
					first = r.Done
				}
			}
			if first.IsZero() {
				unresolved = append(unresolved, b)
				continue
			}
			lags = append(lags, ms(first.Sub(b.At)))
		}
	}
	return lags, unresolved
}

// keepUp checks that the daemon kept pace with its feed and its readers,
// which the serve workload's sizing rests on. The limit is one chunk
// period, the time between spool versions: a seal that completes more
// than a period past its due time, or a key first served fresh more than
// a period after a version bump, leaves the daemon a whole version
// behind. A (key, version) pair that no fresh response resolves fails
// too, unless its bump came within a period of the client's last send,
// too late to be seen. And the generator must send its median request
// within one inter-arrival gap (1/rate) of its due time.
func keepUp(reqs []request, sealLags, lags []float64, unresolved []bump, period time.Duration, rate float64) error {
	var errs []error
	if worst := slices.Max(append([]float64{0}, sealLags...)); worst > ms(period) {
		errs = append(errs, fmt.Errorf("a seal completed %.1f ms past its due time; the limit is one chunk period, %.1f ms", worst, ms(period)))
	}
	if worst := slices.Max(append([]float64{0}, lags...)); worst > ms(period) {
		errs = append(errs, fmt.Errorf("a key was first served fresh %.1f ms after its version bump; the limit is one chunk period, %.1f ms", worst, ms(period)))
	}
	var lastSent time.Time
	var late []float64
	for _, r := range reqs {
		if r.Sent.After(lastSent) {
			lastSent = r.Sent
		}
		late = append(late, ms(r.lateness()))
	}
	for _, b := range unresolved {
		if b.At.Add(period).Before(lastSent) {
			errs = append(errs, fmt.Errorf("version %d was never served fresh for some key though the client ran a chunk period past it", b.Version))
			break
		}
	}
	if gap := 1000 / rate; median(late) > gap {
		errs = append(errs, fmt.Errorf("the generator sent its median request %.2f ms late; the limit is one inter-arrival gap, %.2f ms", median(late), gap))
	}
	return errors.Join(errs...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// httpClient is a client that keeps at most one loopback connection
// alive, so conns clients hold at most conns connections.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// getReport fetches /report?query and returns the body and X-Cache
// state; any status but 200 or an unknown cache state is an error.
func getReport(c *http.Client, base, query string) ([]byte, string, error) {
	u := base + "/report"
	if query != "" {
		u += "?" + query
	}
	resp, err := c.Get(u)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("/report?%s: status %d", query, resp.StatusCode)
	}
	state := resp.Header.Get("X-Cache")
	switch state {
	case "hit", "stale", "miss":
	default:
		return nil, "", fmt.Errorf("/report?%s: X-Cache %q", query, state)
	}
	return body, state, nil
}

// daemonServer serves d's handler on a loopback port.
type daemonServer struct {
	base string
	srv  *http.Server
	done chan error
}

func serveDaemon(d *studyd.Daemon) (*daemonServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &daemonServer{base: "http://" + l.Addr().String(), srv: &http.Server{Handler: d.Handler()}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// close stops the server and waits for its goroutine to return.
func (s *daemonServer) close() error {
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// awaitFresh polls key until the daemon serves it fresh, and returns
// that body. Only called on a drained daemon, where a stale entry's
// revalidation is the one thing left to wait for.
func awaitFresh(c *http.Client, base, query string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		body, state, err := getReport(c, base, query)
		if err != nil {
			return nil, err
		}
		if state != "stale" {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("/report?%s still stale after 60s", query)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// buildServeRef writes the single-process dataset the daemon's spool
// must equal.
func buildServeRef(ctx context.Context, cfg world.Config, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	_, err := seggen.Run(ctx, seggen.Options{World: world.New(cfg), Dir: dir, Origin: origin(cfg), Workers: 2})
	return err
}

// runServe runs the always-on daemon over a long world. Ingest is paced
// from outside: the live feed's seal callback waits for each window's
// due time (the run's seconds spread evenly over the world's windows)
// and then calls Daemon.Seal. From the first chunk commit on, an
// open-loop client sends /report at a fixed rate over two keep-alive
// loopback connections, with a seeded mix over the key set. After the
// drain, every key's /report must equal study.FromSegments over the
// single-process dataset, and the spool must equal that dataset.
func runServe(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	cfg := e.world(e.scale.Serve)
	ref := filepath.Join(e.dir, "ref")
	setup, err := timeSetup(setupReps, setupSeconds, func() error { return buildServeRef(ctx, cfg, ref) })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.set("setup_s", setup, "s")

	w := world.New(cfg)
	keys, err := serveKeys(w)
	if err != nil {
		return nil, err
	}
	spool := filepath.Join(e.dir, "spool")
	d, err := studyd.New(studyd.Options{Dir: spool, Origin: origin(cfg), World: w, ReportWorkers: 1})
	if err != nil {
		return nil, err
	}
	srv, err := serveDaemon(d)
	if err != nil {
		return nil, err
	}

	const conns = 2
	clients := []*http.Client{httpClient(), httpClient()}
	windows := cfg.Windows()
	pace := time.Duration(e.seconds * float64(time.Second) / float64(windows))
	perChunk := int(segstore.DefaultSegmentSpan / world.WindowDuration)
	// The client runs from the first chunk commit to the last window's
	// due time: a fixed request count for a fixed rate and run length.
	nReq := int(serveRate * (float64(windows-perChunk) * pace.Seconds()))
	mix := rand.New(rand.NewSource(int64(e.seed)))
	pick := make([]int, nReq)
	for i := range pick {
		pick[i] = mix.Intn(len(keys))
	}

	liveStart := time.Now()
	b0 := heapAllocBytes()
	firstBump := make(chan time.Time, 1)
	var reqs []request
	clientDone := make(chan struct{})
	cctx, cancelClient := context.WithCancel(ctx)
	defer cancelClient()
	go func() {
		defer close(clientDone)
		var start time.Time
		select {
		case start = <-firstBump:
		case <-cctx.Done():
			return
		}
		reqs = openLoop(cctx, nReq, serveRate, start, conns,
			func(i int) int { return pick[i] },
			func(wk, k int) (string, error) {
				_, state, err := getReport(clients[wk], srv.base, keys[k].Query)
				return state, err
			})
	}()

	// Ingest throughput is samples per second of the ingest thread's CPU
	// time in Ingest and Seal: buffering every window batch, and at each
	// chunk close the daemon's encode and commit of every group's segment.
	// Thread CPU time leaves out the time a commit blocks in fsync and the
	// time the revalidations that follow each spool version hold the other
	// core. Wall time would charge ingest for both — on a shared two-core
	// host that moved it by a third between runs; the contention itself
	// shows in seal_lag_tail_ms and fresh_lag_*. The figure is the median
	// over chunks, which a slow stretch of a shared host moves less than
	// the whole-run ratio (ingest_total_samples_per_s on the detail line).
	var (
		busy     time.Duration // ingest thread CPU (wall time where unavailable) in Ingest and Seal
		ingested int
		// chunkRates is each chunk's ingest throughput; chunkBusy and
		// chunkIngested accumulate the chunk in progress.
		chunkRates    []float64
		chunkBusy     time.Duration
		chunkIngested int
		sealLags      []float64
		bumps         []bump
	)
	threadClock := func() time.Duration {
		if c, ok := threadCPU(); ok {
			return c
		}
		return time.Duration(time.Now().UnixNano())
	}
	runtime.LockOSThread() // the feed calls Ingest and Seal on this goroutine, and workers=1 aggregates on it
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	feed := world.NewLiveFeed(w)
	err = feed.Run(ctx, 1, func(b world.WindowBatch) error {
		t := threadClock()
		err := d.Ingest(b.Group, b.Win, b.Samples, b.Lost)
		busy += threadClock() - t
		ingested += len(b.Samples)
		chunkIngested += len(b.Samples)
		return err
	}, func(win int) error {
		due := t0.Add(time.Duration(win+1) * pace)
		if dt := time.Until(due); dt > 0 {
			time.Sleep(dt)
		}
		t := threadClock()
		err := d.Seal(win)
		busy += threadClock() - t
		now := time.Now()
		sealLags = append(sealLags, ms(now.Sub(due)))
		o.op(err)
		if (win+1)%perChunk == 0 {
			chunkRates = append(chunkRates, float64(chunkIngested)/(busy-chunkBusy).Seconds())
			chunkBusy, chunkIngested = busy, 0
			bumps = append(bumps, bump{Version: d.Version(), At: now})
			if len(bumps) == 1 {
				firstBump <- now
			}
		}
		return err
	})
	if err == nil {
		err = d.Drain()
	}
	if len(bumps) == 0 {
		cancelClient() // no chunk ever closed, so the client never started
	}
	if err != nil {
		cancelClient()
		<-clientDone
		_ = srv.close()
		return nil, fmt.Errorf("live ingest: %w", err)
	}
	<-clientDone
	b1 := heapAllocBytes()
	o.Detail["run_s"] = time.Since(liveStart).Seconds()

	for _, r := range reqs {
		o.op(r.Err)
	}
	if len(reqs) < nReq {
		o.op(fmt.Errorf("open-loop client sent %d of %d requests", len(reqs), nReq))
	}
	lags, unresolved := freshLags(bumps, reqs, len(keys))
	o.op(keepUp(reqs, sealLags, lags, unresolved, time.Duration(perChunk)*pace, serveRate))

	// Output checks: each key's drained /report against FromSegments over
	// the reference dataset, and the spool against that dataset.
	for _, k := range keys {
		res, err := study.FromSegments(ctx, ref, study.Options{Workers: 1, Filter: k.Filter})
		if err == nil {
			var got []byte
			got, err = awaitFresh(clients[0], srv.base, k.Query)
			if err == nil {
				err = sameBytes("/report?"+k.Query+" after drain", renderStripped(res), got)
			}
		}
		o.op(err)
	}
	o.op(dirsEqual(ref, spool))
	if err := srv.close(); err != nil {
		return nil, err
	}
	// The single-threaded baseline: the whole spool aggregated at
	// workers=1, five times once the daemon has stopped, timed like
	// ingest by the CPU time of the one thread that does the work.
	var w1Rates []float64
	for rep := 0; rep < 5; rep++ {
		runtime.GC()
		t := threadClock()
		res, err := study.FromSegments(ctx, spool, study.Options{Workers: 1})
		o.op(err)
		if err == nil {
			w1Rates = append(w1Rates, float64(res.Collector.Received)/(threadClock()-t).Seconds())
		}
	}

	o.set("samples_per_s", median(chunkRates), "1/s")
	o.detail("ingest_total_samples_per_s", float64(ingested)/busy.Seconds(), "1/s")
	o.Detail["chunk_rates"] = chunkRates
	o.set("w1_samples_per_s", median(w1Rates), "1/s")
	o.set("alloc_bytes_per_sample", float64(b1-b0)/float64(max(ingested, 1)), "B")
	o.detail("peak_rss_mb", peakRSSMB(), "MiB")
	serveDetail(o, reqs, lags, len(unresolved), sealLags, len(bumps))
	o.Detail["samples"] = ingested
	return o, nil
}

// serveDetail adds the serve workload's latency, freshness and cache
// metrics to the detail line.
func serveDetail(o *outcome, reqs []request, lags []float64, unresolved int, sealLags []float64, versions int) {
	var lat, late []float64
	states := map[string]int{}
	for _, r := range reqs {
		if r.Err != nil {
			continue
		}
		lat = append(lat, ms(r.latency()))
		late = append(late, ms(r.lateness()))
		states[r.State]++
	}
	lt := tail(lat)
	o.detail("report_p50_ms", median(lat), "ms")
	o.detail("report_tail_ms", lt.Value, "ms")
	o.Detail["report_tail_pct"] = lt.Pct
	o.Detail["report_samples"] = lt.N
	ft := tail(lags)
	o.detail("fresh_lag_p50_ms", median(lags), "ms")
	o.detail("fresh_lag_tail_ms", ft.Value, "ms")
	o.Detail["fresh_lag_tail_pct"] = ft.Pct
	o.Detail["fresh_lag_samples"] = ft.N
	o.Detail["fresh_lag_unresolved"] = unresolved
	st := tail(sealLags)
	o.detail("seal_lag_tail_ms", st.Value, "ms")
	o.Detail["seal_lag_tail_pct"] = st.Pct
	o.Detail["seal_samples"] = st.N
	gt := tail(late)
	o.detail("generator_late_p50_ms", median(late), "ms")
	o.detail("generator_late_tail_ms", gt.Value, "ms")
	o.Detail["x_cache"] = states
	o.Detail["versions"] = versions
}
