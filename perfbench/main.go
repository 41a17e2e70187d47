// Command perfbench is the repository's end-to-end benchmark. It drives
// the whole pipeline — world generation, collection, segment encode and
// commit, multi-PoP shipping and merge, segment scan, aggregation,
// overview and analyses, report rendering, and the always-on daemon's
// ingest and /report cache — through the packages' public API from a
// single process, checks every output it produces, and prints its
// metrics by name and unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload report|study|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced for S seconds and the last
// stdout line carries the end-to-end metrics. With --trace 1 a traced
// run at workers=1 composes the same work from each layer's public
// calls, records a span around every call, and the last line carries
// the per-layer metrics. The line before the last is a JSON detail
// record: host and provenance, plus the workload-specific metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/world"
)

// scale is the world each workload runs over. fullScale is what the
// benchmark measures; the tests run smaller worlds.
type scale struct {
	Report world.Config // at-rest corpus replayed by study.FromSegments
	Study  world.Config // in-memory world run by study.RunCtx
	Serve  world.Config // long world ingested live by the daemon
}

var fullScale = scale{
	Report: world.Config{Groups: 25, Days: 2, SessionsPerGroupWindow: 40},
	Study:  world.Config{Groups: 40, Days: 2, SessionsPerGroupWindow: 40},
	Serve:  world.Config{Groups: 24, Days: 10, SessionsPerGroupWindow: 8},
}

const (
	// serveRate is serve's open-loop /report rate, in requests per second.
	serveRate = 100
	// Setup is repeated at least setupReps times and for at least
	// setupSeconds (at most 10 times); setup_s is the median.
	setupReps    = 3
	setupSeconds = 5
	// minPasses is the least number of passes a closed-loop workload
	// makes, however short the run.
	minPasses = 4
)

// env is one benchmark invocation.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool // the traced per-layer run instead of the timed workload
	scale    scale
	dir      string // scratch directory inside the checkout, removed at exit
}

// refSeed is the seed whose world sizes every other seed's: see world.
const refSeed = 42

// world returns cfg seeded for this run and sized like the reference
// seed's world. Group weights are log-normal, so with tens of groups a
// seed alone moves the sample count by ±20%, and with it every figure
// that amortizes a per-group or per-pass cost. Scaling the session rate
// by the ratio of total group weights keeps the expected sample count
// of every seed at the reference seed's (whose own rate is unchanged);
// what varies with the seed is then the data, not the amount of it.
func (e *env) world(cfg world.Config) world.Config {
	ref := cfg
	ref.Seed = refSeed
	cfg.Seed = e.seed
	cfg.SessionsPerGroupWindow *= totalWeight(ref) / totalWeight(cfg)
	return cfg
}

func totalWeight(cfg world.Config) float64 {
	var sum float64
	for _, g := range world.New(cfg).Groups {
		sum += g.Weight
	}
	return sum
}

// origin is the dataset identity every spool of one world shares.
func origin(cfg world.Config) string {
	return fmt.Sprintf("perfbench seed=%d groups=%d days=%d spw=%g",
		cfg.Seed, cfg.Groups, cfg.Days, cfg.SessionsPerGroupWindow)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result. Metrics are the ones the last line
// carries; Detail holds workload-specific metrics and counts that ride
// on the detail line.
type outcome struct {
	checks
	Metrics map[string]metric
	Detail  map[string]any
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]metric{}, Detail: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }

// detail adds a workload-specific metric to the detail line.
func (o *outcome) detail(name string, v float64, unit string) { o.Detail[name] = metric{v, unit} }

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"report": runReport,
	"study":  runStudy,
	"serve":  runServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	wl := fl.String("workload", "", "workload: report, study or serve")
	seed := fl.Uint64("seed", 42, "workload seed: the same seed builds the same inputs")
	seconds := fl.Float64("seconds", 10, "how long the measured phase runs")
	traced := fl.Int("trace", 0, "1 runs the traced per-layer run instead of the timed workload")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want report, study or serve)\n", *wl)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	return runEnv(&env{workload: *wl, seed: *seed, seconds: *seconds, traced: *traced == 1, scale: fullScale}, stdout, stderr)
}

// runEnv runs e in a scratch directory under .bench_tmp and prints the
// table, the detail line and the result line; it returns the exit code.
func runEnv(e *env, stdout, stderr io.Writer) int {
	// Load generation never uses more threads than there are CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_tmp", e.workload+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e.dir = dir

	ctx := context.Background()
	start := time.Now()
	var o *outcome
	if e.traced {
		o, err = runTraced(ctx, e)
	} else {
		o, err = workloads[e.workload](ctx, e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	for _, msg := range o.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
	}
	if o.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s attempted no operation\n", e.workload)
		return 1
	}

	trace := 0
	if e.traced {
		trace = 1
	}
	printTable(stdout, e.workload, o)
	detail := map[string]any{"provenance": provenance(e, time.Since(start)), "workload": e.workload, "trace": trace}
	for k, v := range o.Detail {
		detail[k] = v
	}
	db, err := json.Marshal(detail)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(db))
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, o.Metrics}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(rb))
	return 0
}

// printTable prints every metric by name and unit, human-readable.
func printTable(w io.Writer, wl string, o *outcome) {
	fmt.Fprintf(w, "perfbench %s: %d operations, %d failed\n", wl, o.attempted, o.failed)
	var names []string
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	names = names[:0]
	for n, v := range o.Detail {
		if _, ok := v.(metric); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Detail[n].(metric)
		fmt.Fprintf(w, "  %-32s %14.4f %s (detail)\n", n, m.Value, m.Unit)
	}
}

// provenance records the conditions a result was measured under, so
// figures from different hosts or sources are never compared silently.
func provenance(e *env, wall time.Duration) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
		"source":     sourceDigest("."),
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     e.traced,
		"wall_s":     wall.Seconds(),
		"started":    time.Now().Add(-wall).UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of the working directory, when it is a git
// checkout and git is installed; otherwise "unknown" (the source digest
// still identifies the code).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// hidden and scratch directories), identifying the measured code even
// where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
