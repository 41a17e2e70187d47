package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/sample"
	"repro/internal/seggen"
	"repro/internal/segstore"
	"repro/internal/ship"
	"repro/internal/study"
	"repro/internal/studyd"
	"repro/internal/world"
)

// layersJSON is the layer model: each per-layer metric, the end-to-end
// metrics and workloads it should move, where it should not, which
// public calls are reported as one bundled layer, and the bound the
// traced run's reconciliation is held to.
//
//go:embed layers.json
var layersJSON []byte

type layerModel struct {
	ReconcileBoundPct float64 `json:"reconcile_bound_pct"`
	Metrics           []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"metrics"`
}

func loadLayerModel() (layerModel, error) {
	var m layerModel
	err := json.Unmarshal(layersJSON, &m)
	return m, err
}

// traceConfig is the world the traced run composes: the workload's own.
func traceConfig(e *env) world.Config {
	switch e.workload {
	case "report":
		return e.world(e.scale.Report)
	case "study":
		return e.world(e.scale.Study)
	default:
		return e.world(e.scale.Serve)
	}
}

// chainOut is what one run of the chain produced and counted.
type chainOut struct {
	wall       time.Duration
	rowReport  []byte
	colReport  []byte
	spool      string
	serveSpool string
	served     [][]byte // each key's drained /report

	generated   int64 // samples the world generated (both passes)
	offered     int64 // samples offered to collectors
	accepted    int64
	blobBytes   int64
	ackMs       []float64
	retries     int
	merge       ship.MergeStats
	readRatio   float64
	chunkSealMs []float64
	states      map[string]int // /report responses by X-Cache state
}

// chain runs the whole pipeline once at workers=1, composed from each
// layer's public calls: generate → collect → aggregate and overview →
// analyses → render (the study row path); the same collected samples
// encoded and committed into two PoP datasets → shipped to one merger
// (what seggen.Run and a two-PoP fleet do); the merged spool scanned as
// column batches → collect → aggregate and overview → analyses →
// render (what study.FromSegments does); and the world again through
// the live feed into a daemon whose /report cache is driven through
// miss, hit and stale at every spool version. With tr nil nothing is
// recorded: that is the untraced run the tracing overhead is measured
// against.
func chain(ctx context.Context, tr *tracer, cfg world.Config, base string, keys []serveKey) (*chainOut, error) {
	out := &chainOut{states: map[string]int{}}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	root := tr.start("e2e", 0)

	// Row path, with the collected samples encoded into two PoP datasets.
	sp := tr.start("world", root)
	w := world.New(cfg)
	tr.end(sp, 0)
	pops := [2]string{filepath.Join(base, "pop0"), filepath.Join(base, "pop1")}
	owner := map[int]int{}
	var writers [2]*segstore.Writer
	for p, share := range balancedShares(w) {
		for _, gi := range share {
			owner[gi] = p
		}
		sp := tr.start("segstore.commit", root)
		sw, err := segstore.Create(pops[p], origin(cfg))
		if err == nil {
			err = sw.Commit()
		}
		tr.end(sp, 0)
		if err != nil {
			return nil, err
		}
		writers[p] = sw
	}
	store, ov := agg.NewStore(), analysis.NewOverview()
	var kept []sample.Sample
	col := collector.New(collector.SliceSink(&kept))
	cpg := seggen.ChunksPerGroup(cfg)
	chunkOf := func(s *sample.Sample) int {
		return min(max(int(s.Start/segstore.DefaultSegmentSpan), 0), cpg-1)
	}
	gen := tr.start("world", root)
	err := w.GenerateBatches(ctx, 1, func(b world.Batch) error {
		out.generated += int64(len(b.Samples))
		kept = kept[:0]
		sp := tr.start("collector", gen)
		for _, s := range b.Samples {
			col.Offer(s)
		}
		tr.end(sp, int64(len(b.Samples)))
		aggSpan(tr, gen, int64(len(kept)), func() {
			for i := range kept {
				store.Add(kept[i])
			}
		})
		sp = tr.start("overview", gen)
		for i := range kept {
			ov.Add(kept[i])
		}
		tr.end(sp, int64(len(kept)))

		type chunk struct {
			id   int
			blob []byte
			meta segstore.SegmentMeta
		}
		var chunks []chunk
		sp = tr.start("segstore.encode", gen)
		for lo := 0; lo < len(kept); {
			c := chunkOf(&kept[lo])
			hi := lo + 1
			for hi < len(kept) && chunkOf(&kept[hi]) == c {
				hi++
			}
			blob, meta := segstore.EncodeSegment(kept[lo:hi])
			chunks = append(chunks, chunk{b.Group*cpg + c, blob, meta})
			out.blobBytes += int64(len(blob))
			lo = hi
		}
		tr.end(sp, int64(len(kept)))
		sw := writers[owner[b.Group]]
		sp = tr.start("segstore.commit", gen)
		for _, c := range chunks {
			if err := sw.Add(c.id, c.blob, c.meta); err != nil {
				tr.end(sp, 0)
				return err
			}
		}
		err := sw.Commit()
		tr.end(sp, int64(len(chunks)))
		return err
	})
	tr.end(gen, 0)
	if err != nil {
		return nil, fmt.Errorf("row path: %w", err)
	}
	if err := col.Err(); err != nil {
		return nil, err
	}
	st := col.Stats()
	out.offered, out.accepted = int64(st.Received), int64(st.Accepted)
	rowRes := &study.Results{Cfg: w.Cfg, Collector: st, Overview: ov, Store: store}
	out.rowReport = analyseAndRender(tr, root, rowRes)

	// Ship both PoP datasets, one after the other, into one merger.
	out.spool = filepath.Join(base, "spool")
	shipSpan := tr.start("ship", root)
	err = shipAndMerge(ctx, tr, shipSpan, base, pops, out)
	tr.end(shipSpan, int64(out.merge.Shipments))
	if err != nil {
		return nil, err
	}

	// Column path over the merged spool.
	store, ov = agg.NewStore(), analysis.NewOverview()
	col = collector.New()
	scan := tr.start("segstore.scan", root)
	r, err := segstore.Open(out.spool)
	if err != nil {
		tr.end(scan, 0)
		return nil, err
	}
	var scanned int64
	err = r.ScanColumns(ctx, 1, nil, func(b *segstore.ColumnBatch) error {
		defer b.Release()
		n := b.Len()
		scanned += int64(n)
		sp := tr.start("collector", scan)
		col.OfferColumns(b)
		tr.end(sp, int64(n))
		aggSpan(tr, scan, int64(b.Len()), func() { store.AddBatch(b) })
		sp = tr.start("overview", scan)
		ov.AddColumns(b)
		tr.end(sp, int64(b.Len()))
		return nil
	})
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	tr.end(scan, scanned)
	if err != nil {
		return nil, fmt.Errorf("column path: %w", err)
	}
	st = col.Stats()
	out.offered += int64(st.Received)
	out.accepted += int64(st.Accepted)
	colRes := &study.Results{Cfg: inferredConfig(store), Collector: st, Overview: ov, Store: store}
	out.colReport = analyseAndRender(tr, root, colRes)

	// The live daemon, its /report cache driven at every spool version.
	collect, err := liveChain(ctx, tr, root, cfg, base, keys, out)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	tr.end(root, 0)
	out.wall = time.Since(t0)
	if err := collect(); err != nil {
		return nil, fmt.Errorf("daemon outputs: %w", err)
	}
	return out, nil
}

// aggSpan runs f inside an "agg" span, counting its heap objects.
func aggSpan(tr *tracer, parent int, work int64, f func()) {
	sp := tr.start("agg", parent)
	a := tr.allocStart()
	f()
	tr.allocEnd(sp, a)
	tr.end(sp, work)
}

// analyseAndRender is the back half of every study: seal the store,
// run the §5/§6 analyses and render the report, each in its own span.
// The analyses and their order are those of study's sequential path.
func analyseAndRender(tr *tracer, parent int, res *study.Results) []byte {
	sp := tr.start("agg.seal", parent)
	res.Store.Seal(1)
	tr.end(sp, 0)
	params := analysis.DefaultClassifyParams(res.Cfg.Days)
	windows := res.Store.TotalWindows
	if windows == 0 {
		windows = res.Cfg.Windows()
	}
	sp = tr.start("analysis.degradation", parent)
	res.DegMinRTT = analysis.Degradation(res.Store, analysis.MetricMinRTT)
	res.DegHD = analysis.Degradation(res.Store, analysis.MetricHDratio)
	tr.end(sp, 0)
	sp = tr.start("analysis.opportunity", parent)
	res.OppMinRTT = analysis.Opportunity(res.Store, analysis.MetricMinRTT)
	res.OppHD = analysis.Opportunity(res.Store, analysis.MetricHDratio)
	tr.end(sp, 0)
	sp = tr.start("analysis.classify", parent)
	res.Table1DegMinRTT = res.DegMinRTT.Classify(windows, params, study.Table1DegMinRTTMs)
	res.Table1DegHD = res.DegHD.Classify(windows, params, study.Table1DegHD)
	res.Table1OppMinRTT = res.OppMinRTT.Classify(windows, params, study.Table1OppMinRTTMs)
	res.Table1OppHD = res.OppHD.Classify(windows, params, study.Table1OppHD)
	tr.end(sp, 0)
	sp = tr.start("analysis.relationships", parent)
	res.Table2MinRTT = res.OppMinRTT.Relationships(5)
	res.Table2HD = res.OppHD.Relationships(0.05)
	tr.end(sp, 0)
	sp = tr.start("render", parent)
	var buf bytes.Buffer
	res.WriteReport(&buf)
	tr.end(sp, 0)
	return stripElapsed(buf.Bytes())
}

// inferredConfig is the world shape a replay reports when the dataset
// carries no config: the rule study applies to every replay path
// (days count from the first covered window).
func inferredConfig(store *agg.Store) world.Config {
	covered := store.TotalWindows - store.FirstWindow()
	days := max((covered+world.WindowsPerDay-1)/world.WindowsPerDay, 1)
	cfg := world.Config{Groups: store.Len(), Days: days}
	cfg.SessionsPerGroupWindow = float64(store.TotalSamples) / float64(max(1, store.Len()*store.TotalWindows))
	return cfg
}

// liveChain ingests the world through the live feed into a fresh
// daemon (unpaced) and, after every chunk-closing seal, drives each
// key's cached /report until it is fresh at the new version: the first
// version is a cold miss, later ones serve stale while the daemon
// rebuilds in the background (the wait is the studyd.revalidate span),
// and a final request must hit. The returned collect reads the drained
// daemon's outputs into out and stops it; it runs after the traced
// span ends, since checking is not part of the timed work.
func liveChain(ctx context.Context, tr *tracer, root int, cfg world.Config, base string, keys []serveKey, out *chainOut) (collect func() error, err error) {
	sp := tr.start("studyd.open", root)
	w := world.New(cfg)
	out.serveSpool = filepath.Join(base, "serve")
	d, err := studyd.New(studyd.Options{Dir: out.serveSpool, Origin: origin(cfg), World: w, ReportWorkers: 1})
	var srv *daemonServer
	if err == nil {
		srv, err = serveDaemon(d)
	}
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = srv.close()
		}
	}()
	client := httpClient()
	get := func(parent int, q string) (string, error) {
		sp := tr.start("studyd.request", parent)
		_, state, err := getReport(client, srv.base, q)
		tr.rename(sp, "studyd."+state)
		tr.end(sp, 0)
		out.states[state]++
		return state, err
	}
	perChunk := int(segstore.DefaultSegmentSpan / world.WindowDuration)
	feedSpan := tr.start("world", root)
	feed := world.NewLiveFeed(w)
	err = feed.Run(ctx, 1, func(b world.WindowBatch) error {
		out.generated += int64(len(b.Samples))
		sp := tr.start("studyd.ingest", feedSpan)
		err := d.Ingest(b.Group, b.Win, b.Samples, b.Lost)
		tr.end(sp, int64(len(b.Samples)))
		return err
	}, func(win int) error {
		t := time.Now()
		sp := tr.start("studyd.seal", feedSpan)
		err := d.Seal(win)
		tr.end(sp, 0)
		if err != nil || (win+1)%perChunk != 0 {
			return err
		}
		out.chunkSealMs = append(out.chunkSealMs, ms(time.Since(t)))
		for _, k := range keys {
			rv := tr.start("studyd.revalidate", feedSpan)
			for wait := time.Millisecond; ; wait = min(2*wait, 8*time.Millisecond) {
				state, err := get(rv, k.Query)
				if err != nil {
					tr.end(rv, 0)
					return err
				}
				if state != "stale" {
					break
				}
				time.Sleep(wait) // polls back off to one every 8ms
			}
			tr.end(rv, 0)
			if state, err := get(feedSpan, k.Query); err != nil || state != "hit" {
				return fmt.Errorf("/report?%s right after a fresh response: state %q, err %v", k.Query, state, err)
			}
		}
		return nil
	})
	tr.end(feedSpan, 0)
	if err != nil {
		return nil, err
	}
	sp = tr.start("studyd.drain", root)
	err = d.Drain()
	tr.end(sp, 0)
	if err != nil {
		return nil, err
	}

	// Outputs: each key's drained report and the share of the spool's
	// segments each key's scan reads.
	return func() error {
		defer srv.close()
		r, err := segstore.Open(out.serveSpool)
		if err != nil {
			return err
		}
		defer r.Close()
		total := float64(max(len(r.Manifest().Segments), 1))
		for _, k := range keys {
			out.readRatio += float64(len(r.Prune(k.Filter))) / total / float64(len(keys))
			body, err := awaitFresh(client, srv.base, k.Query)
			if err != nil {
				return err
			}
			out.served = append(out.served, body)
		}
		return nil
	}, nil
}

// chainRefs are the bundled public calls the composed chain must
// reproduce byte for byte.
type chainRefs struct {
	row     []byte   // study.RunCtx at workers=1
	dataset string   // seggen.Run of the whole world
	col     []byte   // study.FromSegments over that dataset
	served  [][]byte // study.FromSegments per serve key
}

func buildRefs(ctx context.Context, cfg world.Config, base string, keys []serveKey) (*chainRefs, error) {
	refs := &chainRefs{dataset: filepath.Join(base, "ref")}
	res, err := study.RunCtx(ctx, cfg, study.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	refs.row = renderStripped(res)
	if err := buildServeRef(ctx, cfg, refs.dataset); err != nil {
		return nil, err
	}
	res, err = study.FromSegments(ctx, refs.dataset, study.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	refs.col = renderStripped(res)
	for _, k := range keys {
		res, err := study.FromSegments(ctx, refs.dataset, study.Options{Workers: 1, Filter: k.Filter})
		if err != nil {
			return nil, err
		}
		refs.served = append(refs.served, renderStripped(res))
	}
	return refs, nil
}

// check compares one chain run's outputs with the references.
func (refs *chainRefs) check(c *checks, name string, out *chainOut) {
	c.op(sameBytes(name+": row-path report vs study.RunCtx", refs.row, out.rowReport))
	c.op(sameBytes(name+": column-path report vs study.FromSegments", refs.col, out.colReport))
	c.op(dirsEqual(refs.dataset, out.spool))
	c.op(dirsEqual(refs.dataset, out.serveSpool))
	if out.merge.HashConflicts != 0 {
		c.op(fmt.Errorf("%s: merger refused %d hash conflicts", name, out.merge.HashConflicts))
	}
	for i, want := range refs.served {
		var got []byte
		if i < len(out.served) {
			got = out.served[i]
		}
		c.op(sameBytes(fmt.Sprintf("%s: drained /report key %d vs study.FromSegments", name, i), want, got))
	}
}

// runTraced is --trace 1: the workload's world through the composed
// chain once untraced and once traced, both checked against the bundled
// calls, then the per-layer metrics from the traced run's spans.
func runTraced(ctx context.Context, e *env) (*outcome, error) {
	model, err := loadLayerModel()
	if err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	o := newOutcome()
	cfg := traceConfig(e)
	keys, err := serveKeys(world.New(cfg))
	if err != nil {
		return nil, err
	}
	refs, err := buildRefs(ctx, cfg, e.dir, keys)
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	plain, err := chain(ctx, nil, cfg, filepath.Join(e.dir, "u"), keys)
	o.op(err)
	if err != nil {
		return nil, fmt.Errorf("untraced chain: %w", err)
	}
	refs.check(&o.checks, "untraced", plain)
	tr := newTracer(fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	traced, err := chain(ctx, tr, cfg, filepath.Join(e.dir, "t"), keys)
	o.op(err)
	if err != nil {
		return nil, fmt.Errorf("traced chain: %w", err)
	}
	refs.check(&o.checks, "traced", traced)

	spans := tr.snapshot()
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	o.Detail["spans_file"] = path
	o.Detail["spans"] = len(spans)

	lt, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	o.op(reached(lt, traced))
	layerMetrics(o, lt, traced, plain)

	// Reconciliation: the layers' self times must account for the traced
	// end-to-end time to within the model's bound.
	e2e := lt["e2e"].Dur[0]
	var layers time.Duration
	for name, t := range lt {
		if name != "e2e" {
			layers += t.Self
		}
	}
	gap := 100 * float64(e2e-layers) / float64(e2e)
	o.Detail["traced_e2e_ms"] = ms(e2e)
	o.Detail["untraced_e2e_ms"] = ms(plain.wall)
	o.Detail["layers_self_ms"] = ms(layers)
	o.Detail["reconcile_bound_pct"] = model.ReconcileBoundPct
	if gap < 0 || gap > model.ReconcileBoundPct {
		o.op(fmt.Errorf("layer self times cover %.2f%% of the traced end-to-end time; the bound is %.2f%%",
			100-gap, model.ReconcileBoundPct))
	} else {
		o.op(nil)
	}
	for _, m := range model.Metrics {
		got, ok := o.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			o.op(fmt.Errorf("layer metric %s (%s) missing or in the wrong unit", m.Name, m.Unit))
		}
	}
	if len(o.Metrics) != len(model.Metrics) {
		o.op(fmt.Errorf("traced run printed %d layer metrics, the model lists %d", len(o.Metrics), len(model.Metrics)))
	}
	return o, nil
}

// reached fails unless every layer the traced chain passes through left
// spans, the ones that count work counted some, and the hooks and
// counters the other metrics come from saw something. A layer the run
// did not observe would otherwise print 0, which reads as an
// improvement rather than as a broken measurement.
func reached(lt map[string]*layerTotals, out *chainOut) error {
	var missing []string
	for _, name := range []string{"collector", "agg", "overview", "segstore.encode", "segstore.commit", "segstore.scan", "studyd.ingest"} {
		if t := lt[name]; t == nil || t.Work == 0 {
			missing = append(missing, name+" (no work)")
		}
	}
	spans := []string{"world", "ship", "merge.commit", "agg.seal", "analysis.degradation", "analysis.opportunity",
		"analysis.classify", "analysis.relationships", "render", "studyd.seal", "studyd.revalidate", "studyd.hit", "studyd.miss"}
	if len(out.chunkSealMs) > 1 {
		spans = append(spans, "studyd.stale") // from the second spool version on
	}
	for _, name := range spans {
		if lt[name] == nil {
			missing = append(missing, name+" (no span)")
		}
	}
	for _, c := range []struct {
		what string
		zero bool
	}{
		{"generated samples", out.generated == 0},
		{"offered samples", out.offered == 0},
		{"encoded bytes", out.blobBytes == 0},
		{"shipper acks (OnAck)", len(out.ackMs) == 0},
		{"merged shipments", out.merge.Shipments+out.merge.Tombstones == 0},
		{"chunk-closing seals", len(out.chunkSealMs) == 0},
		{"segments read", out.readRatio == 0},
	} {
		if c.zero {
			missing = append(missing, c.what)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("the traced run observed nothing of: %s", strings.Join(missing, ", "))
	}
	return nil
}

// layerMetrics turns span totals and chain counters into the per-layer
// metrics.
func layerMetrics(o *outcome, lt map[string]*layerTotals, traced, plain *chainOut) {
	get := func(name string) *layerTotals {
		if t := lt[name]; t != nil {
			return t
		}
		return &layerTotals{}
	}
	perWork := func(name string) float64 { t := get(name); return ratio(float64(t.Self), float64(t.Work)) }
	meanMs := func(name string) float64 { t := get(name); return ratio(ms(t.Self), float64(t.Count)) }
	eachMs := func(name string, dur bool) []float64 {
		t := get(name)
		src := t.Each
		if dur {
			src = t.Dur
		}
		var xs []float64
		for _, d := range src {
			xs = append(xs, ms(d))
		}
		return xs
	}
	o.set("world.ns_per_sample", ratio(float64(get("world").Self), float64(traced.generated)), "ns")
	o.set("collector.ns_per_sample", perWork("collector"), "ns")
	o.set("collector.accept_ratio", ratio(float64(traced.accepted), float64(traced.offered)), "ratio")
	o.set("segstore.encode_ns_per_sample", perWork("segstore.encode"), "ns")
	o.set("segstore.bytes_per_sample", ratio(float64(traced.blobBytes), float64(get("segstore.encode").Work)), "B")
	o.set("segstore.commit_ms_per_segment", ratio(ms(get("segstore.commit").Self), float64(get("segstore.commit").Work)), "ms")
	o.set("ship.ack_ms_p50", median(traced.ackMs), "ms")
	o.set("ship.ack_ms_tail", tail(traced.ackMs).Value, "ms")
	o.set("ship.retries", float64(traced.retries), "count")
	m := traced.merge
	o.set("ship.dup_ratio", ratio(float64(m.Dedup), float64(m.Shipments+m.Tombstones+m.Dedup)), "ratio")
	o.set("merge.commit_ms_p50", median(eachMs("merge.commit", true)), "ms")
	o.set("merge.commit_ms_tail", tail(eachMs("merge.commit", true)).Value, "ms")
	o.set("segstore.scan_ns_per_sample", perWork("segstore.scan"), "ns")
	o.set("segstore.read_segment_ratio", traced.readRatio, "ratio")
	o.set("agg.ns_per_sample", perWork("agg"), "ns")
	o.set("agg.allocs_per_sample", ratio(float64(get("agg").Allocs), float64(get("agg").Work)), "count")
	o.set("agg.seal_ms", meanMs("agg.seal"), "ms")
	o.set("overview.ns_per_sample", perWork("overview"), "ns")
	o.set("analysis.degradation_ms", meanMs("analysis.degradation"), "ms")
	o.set("analysis.opportunity_ms", meanMs("analysis.opportunity"), "ms")
	o.set("analysis.classify_ms", meanMs("analysis.classify"), "ms")
	o.set("analysis.relationships_ms", meanMs("analysis.relationships"), "ms")
	o.set("render.ms", meanMs("render"), "ms")
	o.set("studyd.ingest_ns_per_sample", perWork("studyd.ingest"), "ns")
	o.set("studyd.seal_ms_p50", median(eachMs("studyd.seal", false)), "ms")
	o.set("studyd.chunk_seal_ms_tail", tail(traced.chunkSealMs).Value, "ms")
	o.set("studyd.hit_ms_p50", median(eachMs("studyd.hit", false)), "ms")
	o.set("studyd.stale_ms_p50", median(eachMs("studyd.stale", false)), "ms")
	o.set("studyd.miss_ms_p50", median(eachMs("studyd.miss", false)), "ms")
	o.set("studyd.revalidate_ms_p50", median(eachMs("studyd.revalidate", true)), "ms")
	n := float64(traced.states["hit"] + traced.states["stale"] + traced.states["miss"])
	o.set("studyd.fresh_ratio", ratio(float64(traced.states["hit"]), n), "ratio")
	o.set("studyd.miss_ratio", ratio(float64(traced.states["miss"]), n), "ratio")
	e2e := get("e2e")
	o.set("traced.residual_pct", 100*ratio(float64(e2e.Self), float64(e2e.Dur[0])), "%")
	o.set("traced.overhead_pct", 100*ratio(float64(traced.wall-plain.wall), float64(plain.wall)), "%")
	o.Detail["x_cache"] = traced.states
	var shipTime time.Duration
	for _, d := range get("ship").Dur {
		shipTime += d
	}
	o.detail("ship_segments_per_s", ratio(float64(m.Shipments+m.Tombstones), shipTime.Seconds()), "1/s")
}

// ratio is a/b, or 0 when b is 0 (a layer the run did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
