package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"repro/internal/seggen"
	"repro/internal/study"
	"repro/internal/world"
)

// passStats are a closed loop's per-pass figures.
type passStats struct {
	rate   map[int][]float64 // samples/s by worker count
	allocs []float64         // heap bytes per sample, workers=2 passes
	n      int
}

// runPasses runs a closed loop with one caller: pass i runs at workers
// 2 when i is even and 1 when it is odd, until the run's seconds are
// spent and at least minPasses passes are done. Each pass starts from a
// collected heap; pass returns the samples it processed, and a pass
// that fails or processes nothing is a failed operation.
func runPasses(e *env, c *checks, pass func(workers int) (int, error)) passStats {
	ps := passStats{rate: map[int][]float64{}}
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i < minPasses; i++ {
		workers := 2 - i%2
		runtime.GC()
		b0 := heapAllocBytes()
		t := time.Now()
		n, err := pass(workers)
		dt := time.Since(t).Seconds()
		b1 := heapAllocBytes()
		if err == nil && n == 0 {
			err = fmt.Errorf("pass at workers=%d processed no samples", workers)
		}
		c.op(err)
		ps.n++
		if err != nil {
			continue
		}
		ps.rate[workers] = append(ps.rate[workers], float64(n)/dt)
		if workers == 2 {
			ps.allocs = append(ps.allocs, float64(b1-b0)/float64(n))
		}
	}
	return ps
}

func (ps passStats) report(o *outcome) {
	o.set("samples_per_s", median(ps.rate[2]), "1/s")
	o.set("w1_samples_per_s", median(ps.rate[1]), "1/s")
	o.set("alloc_bytes_per_sample", median(ps.allocs), "B")
	o.detail("peak_rss_mb", peakRSSMB(), "MiB")
	o.Detail["pass_rates"] = ps.rate
	o.Detail["passes"] = ps.n
}

// renderStripped renders res and drops the wall-clock line.
func renderStripped(res *study.Results) []byte {
	var buf bytes.Buffer
	res.WriteReport(&buf)
	return stripElapsed(buf.Bytes())
}

// runReport is the `edgereport -in` path: study.FromSegments and
// WriteReport over an at-rest dense corpus built during setup, checked
// against the row oracle's report on every pass.
func runReport(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	cfg := e.world(e.scale.Report)
	corpus := filepath.Join(e.dir, "corpus")
	setup, err := timeSetup(setupReps, setupSeconds, func() error {
		if err := os.RemoveAll(corpus); err != nil {
			return err
		}
		_, err := seggen.Run(ctx, seggen.Options{World: world.New(cfg), Dir: corpus, Origin: origin(cfg), Workers: 2})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.set("setup_s", setup, "s")
	oracle, err := study.FromSegments(ctx, corpus, study.Options{Workers: 1, RowOracle: true})
	if err != nil {
		return nil, fmt.Errorf("row oracle: %w", err)
	}
	want := renderStripped(oracle)
	o.Detail["samples"] = oracle.Collector.Received

	ps := runPasses(e, &o.checks, func(workers int) (int, error) {
		res, err := study.FromSegments(ctx, corpus, study.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		if err := sameBytes(fmt.Sprintf("report pass at workers=%d", workers), want, renderStripped(res)); err != nil {
			return 0, err
		}
		return res.Collector.Received, nil
	})
	ps.report(o)
	return o, nil
}

// datasetShape matches the two figures on the Dataset line that a
// replay of an at-rest corpus reports differently from a generated run
// of the same world: the group count (a replay counts user-group keys,
// a generated run its world groups) and the hosting-filter count (the
// corpus holds only accepted samples, so a replay filters none).
var datasetShape = regexp.MustCompile(`^Dataset: \d+ groups|\(\d+ filtered as hosting/VPN\)`)

// maskShape masks datasetShape on the report's first line.
func maskShape(b []byte) []byte {
	line, rest, _ := bytes.Cut(b, []byte("\n"))
	line = datasetShape.ReplaceAll(line, []byte("(masked)"))
	return append(append(line, '\n'), rest...)
}

// runStudy is the headline `edgereport` path: study.RunCtx and
// WriteReport over an in-memory world, the row path from generation
// through collector.Offer and the sharded ingest. Every pass must
// equal the row oracle's report over the same world written at rest,
// except for the group and hosting-filter counts on the Dataset line.
func runStudy(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	cfg := e.world(e.scale.Study)
	corpus := filepath.Join(e.dir, "oracle")
	setup, err := timeSetup(setupReps, setupSeconds, func() error {
		if err := os.RemoveAll(corpus); err != nil {
			return err
		}
		_, err := seggen.Run(ctx, seggen.Options{World: world.New(cfg), Dir: corpus, Origin: origin(cfg), Workers: 2})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.set("setup_s", setup, "s")
	oracle, err := study.FromSegments(ctx, corpus, study.Options{Workers: 1, RowOracle: true})
	if err != nil {
		return nil, fmt.Errorf("row oracle: %w", err)
	}
	want := maskShape(renderStripped(oracle))
	var first []byte // the first pass's unmasked report; every pass must equal it exactly

	ps := runPasses(e, &o.checks, func(workers int) (int, error) {
		res, err := study.RunCtx(ctx, cfg, study.Options{Workers: workers})
		if err != nil {
			return 0, err
		}
		got := renderStripped(res)
		if first == nil {
			first = got
		}
		if err := sameBytes(fmt.Sprintf("study pass at workers=%d vs first pass", workers), first, got); err != nil {
			return 0, err
		}
		if err := sameBytes(fmt.Sprintf("study pass at workers=%d vs row oracle", workers), want, maskShape(got)); err != nil {
			return 0, err
		}
		return res.Collector.Received, nil
	})
	ps.report(o)
	return o, nil
}
