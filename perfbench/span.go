package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (the layer's module
// name), its interval relative to the run's start, the span that
// caused it, and the run it belongs to. Work is the unit count the
// layer processed inside the span (samples, segments), Allocs the heap
// objects it allocated where that was measured.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`
}

// tracer keeps spans in memory; they are written out once the run
// ends. A nil *tracer is a valid, disabled tracer: every method is a
// no-op, which is how the untraced run shares the traced run's code.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span // index = ID-1
	// samples is scratch for allocation reads, guarded by mu.
	samples []metrics.Sample
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), samples: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// start opens a span named name under parent (0 for a root) and
// returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, recording the work it processed.
func (t *tracer) end(id int, work int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Work = work
}

// rename renames span id — for a span whose layer is known only once
// the call returns (a /report request's cache state).
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// record adds a span whose interval was observed elsewhere (a callback
// fired after the work it times, on another goroutine).
func (t *tracer) record(name string, parent int, from, to time.Time, work int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds(), Work: work})
}

// allocStart and allocEnd bracket a span's heap-object count. Reading
// the runtime counters costs well under a microsecond, so this is only
// done around batch-sized spans.
func (t *tracer) allocStart() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64()
}

func (t *tracer) allocEnd(id int, before uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(t.samples)
	t.spans[id-1].Allocs = int64(t.samples[0].Value.Uint64() - before)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans, one JSON object a line.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerTotals is what the per-layer metrics are computed from: per
// span name, the summed self time, work, allocations and span count,
// plus each span's own self time for percentiles.
type layerTotals struct {
	Self   time.Duration
	Work   int64
	Allocs int64
	Count  int
	Each   []time.Duration // per-span self times
	Dur    []time.Duration // per-span durations
}

// selfTimes computes every span's self time — its duration minus the
// part of its interval covered by its children — and sums them by
// span name. Children are clipped to their parent's interval and
// overlapping children are counted once, so for a well-formed tree the
// self times of all spans add up exactly to the roots' durations. An
// unclosed span is an error.
func selfTimes(spans []span) (map[string]*layerTotals, error) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.End < 0 {
			return nil, fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		self := time.Duration(s.End - s.Start - covered)
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		lt.Self += self
		lt.Work += s.Work
		lt.Allocs += s.Allocs
		lt.Count++
		lt.Each = append(lt.Each, self)
		lt.Dur = append(lt.Dur, time.Duration(s.End-s.Start))
	}
	return out, nil
}

// coverage is the length of the union of kids' intervals inside p's.
func coverage(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
