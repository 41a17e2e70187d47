package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/world"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		pct, want float64
	}{
		{1, 100, 1},
		{10, 100, 10}, // no percentile has ten beyond it: the maximum
		{11, 100.0 / 11, 1},
		{100, 90, 90},
		{1000, 99, 990},
	} {
		got := tail(seq(tc.n))
		if got.Value != tc.want || got.N != tc.n || (got.Pct-tc.pct) > 1e-9 || (tc.pct-got.Pct) > 1e-9 {
			t.Errorf("tail of %d samples = %+v, want value %v at p%v", tc.n, got, tc.want, tc.pct)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if tc.n > tailBeyond && beyond != tailBeyond {
			t.Errorf("tail of %d samples leaves %d beyond it, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if got := tail(nil); got.N != 0 {
		t.Errorf("tail of nothing = %+v", got)
	}
}

// A stall on one connection delays the requests queued behind it; their
// latency counts from when they were due, and the generator reports
// how late it sent them.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	reqs := openLoop(context.Background(), 6, 100, start, 1,
		func(i int) int { return i },
		func(_, k int) (string, error) {
			if k == 0 {
				time.Sleep(stall)
			}
			return "hit", nil
		})
	if len(reqs) != 6 {
		t.Fatalf("sent %d requests, want 6", len(reqs))
	}
	for i, r := range reqs {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !r.Due.Equal(want) {
			t.Errorf("request %d due %v after start, want %v", i, r.Due.Sub(start), want.Sub(start))
		}
		if r.Sent.Before(r.Due) {
			t.Errorf("request %d sent before it was due", i)
		}
	}
	// Request 1 was due 10ms in but waited for the 60ms stall.
	if late := reqs[1].lateness(); late < stall-15*time.Millisecond {
		t.Errorf("request 1 lateness %v, want about %v", late, stall-10*time.Millisecond)
	}
	if lat := reqs[1].latency(); lat < reqs[1].lateness() || lat < stall-15*time.Millisecond {
		t.Errorf("request 1 latency %v does not count from its due time (lateness %v)", lat, reqs[1].lateness())
	}
	// With a second connection the stall delays no one else.
	reqs = openLoop(context.Background(), 4, 100, time.Now().Add(5*time.Millisecond), 2,
		func(i int) int { return i },
		func(_, k int) (string, error) {
			if k == 0 {
				time.Sleep(stall)
			}
			return "hit", nil
		})
	if late := reqs[1].lateness(); late > stall/2 {
		t.Errorf("with two connections request 1 was %v late behind the other's stall", late)
	}
}

func TestFreshLagAttribution(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	bumps := []bump{{Version: 1, At: at(100)}, {Version: 2, At: at(200)}}
	reqs := []request{
		{Key: 0, Sent: at(90), Done: at(95), State: "hit"},                        // before the bump
		{Key: 0, Sent: at(110), Done: at(150), State: "stale"},                    // not fresh
		{Key: 0, Sent: at(115), Done: at(160), Err: errors.New("refused")},        // failed
		{Key: 0, Sent: at(120), Done: at(170), State: "miss"},                     // v1 fresh for key 0: 70ms
		{Key: 0, Sent: at(125), Done: at(180), State: "hit"},                      // later than the miss
		{Key: 1, Sent: at(205), Done: at(230), State: "hit"},                      // v1 (130ms) and v2 (30ms) for key 1
		{Key: 0, Sent: at(199), Done: at(260), State: "hit"},                      // sent before bump 2: v1 only
		{Key: 2, Sent: at(300), Done: at(301), State: "hit", Err: errors.New("")}, // errors never resolve
	}
	lags, unresolved := freshLags(bumps, reqs, 3)
	sort.Float64s(lags)
	want := []float64{30, 70, 130}
	if len(lags) != len(want) {
		t.Fatalf("lags %v, want %v", lags, want)
	}
	for i := range want {
		if d := lags[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("lags %v, want %v", lags, want)
		}
	}
	// Key 0 at v2 and key 2 at both versions saw no fresh response.
	if len(unresolved) != 3 || unresolved[0].Version != 1 || unresolved[1].Version != 2 || unresolved[2].Version != 2 {
		t.Errorf("unresolved %+v, want key 2 at v1, keys 0 and 2 at v2", unresolved)
	}
}

// The daemon falls behind when a seal or a fresh response takes more
// than a chunk period, when a version no fresh response resolves lies a
// period before the client's end, or when the generator is late.
func TestKeepUp(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	const period = 100 * time.Millisecond
	reqs := []request{
		{Due: at(0), Sent: at(1), Done: at(2)},
		{Due: at(10), Sent: at(10), Done: at(11)},
		{Due: at(500), Sent: at(501), Done: at(502)},
	}
	if err := keepUp(reqs, []float64{5, 99}, []float64{50}, []bump{{Version: 9, At: at(450)}}, period, 100); err != nil {
		t.Errorf("a daemon within every limit fell behind: %v", err)
	}
	for name, tc := range map[string]struct {
		seal, lags []float64
		unresolved []bump
		reqs       []request
	}{
		"late seal":          {seal: []float64{101}},
		"slow fresh":         {lags: []float64{150}},
		"unresolved version": {unresolved: []bump{{Version: 2, At: at(300)}}},
		"late generator": {reqs: []request{
			{Due: at(0), Sent: at(20)}, {Due: at(10), Sent: at(30)}, {Due: at(500), Sent: at(501)},
		}},
	} {
		r := reqs
		if tc.reqs != nil {
			r = tc.reqs
		}
		if err := keepUp(r, tc.seal, tc.lags, tc.unresolved, period, 100); err == nil {
			t.Errorf("%s: keepUp passed", name)
		}
	}
}

func TestSelfTimesReconcile(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "e2e", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "world", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "agg", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "agg", Start: 30, End: 50},      // overlaps its sibling
		{ID: 5, Parent: 2, Name: "overview", Start: 80, End: 95}, // clipped at 90
	}
	lt, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if got := lt["world"].Self; got != 80-30-10 {
		t.Errorf("world self %v, want 40", got)
	}
	if got := lt["e2e"].Self; got != 20 {
		t.Errorf("e2e self %v, want 20", got)
	}
	if _, err := selfTimes([]span{{ID: 1, Name: "open", End: -1}}); err == nil {
		t.Error("an unclosed span was accepted")
	}
}

// benchmarkJSON is the repository's benchmark contract, one directory up.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// layersJSONMetric is one entry of layers.json's interaction list.
type layersJSONMetric struct {
	Name, Unit string
	Moves      []struct {
		Metric    string
		Workloads []string
	}
	NoChange []string `json:"no_change"`
}

// A layer metric's no_change list holds only workloads on which none of
// its predicted moves apply, and names only real workloads.
func TestLayerModelConsistent(t *testing.T) {
	var m struct{ Metrics []layersJSONMetric }
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		t.Fatal(err)
	}
	for _, lm := range m.Metrics {
		moved := map[string]string{}
		for _, mv := range lm.Moves {
			for _, wl := range mv.Workloads {
				if _, ok := workloads[wl]; !ok && wl != "traced" {
					t.Errorf("%s moves %s on unknown workload %q", lm.Name, mv.Metric, wl)
				}
				moved[wl] = mv.Metric
			}
		}
		for _, wl := range lm.NoChange {
			if _, ok := workloads[wl]; !ok {
				t.Errorf("%s: no_change names unknown workload %q", lm.Name, wl)
			}
			if metric, ok := moved[wl]; ok {
				t.Errorf("%s: %s is in no_change but the metric is predicted to move %s there", lm.Name, wl, metric)
			}
		}
	}
}

// smokeScale is every workload's world at a size that runs in seconds.
var smokeScale = scale{
	Report: world.Config{Groups: 3, Days: 1, SessionsPerGroupWindow: 10},
	Study:  world.Config{Groups: 3, Days: 1, SessionsPerGroupWindow: 10},
	Serve:  world.Config{Groups: 3, Days: 2, SessionsPerGroupWindow: 4},
}

// Every workload, timed and traced, at smoke size: outputs check out and
// the last line carries exactly the metrics BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	model, err := loadLayerModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Metrics) != len(perLayer) {
		t.Errorf("layers.json lists %d metrics, BENCHMARK.json %d", len(model.Metrics), len(perLayer))
	}
	for _, m := range model.Metrics {
		if perLayer[m.Name] != m.Unit {
			t.Errorf("layers.json metric %s (%s) is not in BENCHMARK.json's per_layer list with that unit", m.Name, m.Unit)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir(wd) }()

	for _, wl := range []string{"report", "study", "serve"} {
		for _, traced := range []bool{false, true} {
			var out, errb bytes.Buffer
			code := runEnv(&env{workload: wl, seed: 7, seconds: 1, traced: traced, scale: smokeScale}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s traced=%v exited %d: %s", wl, traced, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", wl, traced, res.Correct, res.Attempted, res.Failed, errb.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v printed %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or not in %s", wl, traced, name, unit)
				}
			}
			if ents, _ := os.ReadDir(".bench_tmp"); len(ents) != 0 {
				t.Errorf("%s traced=%v left scratch data behind", wl, traced)
			}
		}
	}
}
