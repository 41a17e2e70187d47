package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailStat is a latency tail: the highest percentile of a sample set
// that still has at least tailBeyond samples above it, with the sample
// count it was taken from. Fixing "ten samples beyond" rather than a
// percentile keeps the tail resolvable at any sample count.
type tailStat struct {
	Pct   float64 // percentile, 0..100
	Value float64
	N     int // samples the tail was taken from
}

const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond
// samples above it. With tailBeyond or fewer samples no percentile
// qualifies; the maximum is returned instead, labelled 100.
func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tailStat{Pct: 100, Value: s[n-1], N: n}
	}
	k := n - 1 - tailBeyond // s[k] has exactly tailBeyond samples after it
	return tailStat{Pct: 100 * float64(k+1) / float64(n), Value: s[k], N: n}
}

// heapAllocBytes reads the cumulative count of heap bytes allocated
// since the process started.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB; 0 where /proc/self/status does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// timeSetup runs build at least reps times and for at least minSeconds
// (at most 10 times), and returns the median duration in seconds. Each
// rep starts from a collected heap, so one rep's garbage does not tax
// the next.
func timeSetup(reps int, minSeconds float64, build func() error) (float64, error) {
	var ds []float64
	total := 0.0
	for len(ds) < max(reps, 1) || (total < minSeconds && len(ds) < 10) {
		runtime.GC()
		t := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
		total += ds[len(ds)-1]
	}
	return median(ds), nil
}

// stripElapsed drops the report's "Generated and analysed in ..." line,
// its only wall-clock bytes, so reports compare as pure functions of
// their input.
func stripElapsed(b []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("Generated and analysed")) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// dirsEqual reports whether dirs a and b hold the same file names with
// byte-identical contents. The error names the first difference.
func dirsEqual(a, b string) error {
	an, err := os.ReadDir(a)
	if err != nil {
		return err
	}
	bn, err := os.ReadDir(b)
	if err != nil {
		return err
	}
	if len(an) != len(bn) {
		return fmt.Errorf("file sets differ: %s has %d files, %s has %d", a, len(an), b, len(bn))
	}
	for i, e := range an {
		if e.Name() != bn[i].Name() {
			return fmt.Errorf("file sets differ: %s has %s where %s has %s", a, e.Name(), b, bn[i].Name())
		}
		ab, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			return err
		}
		bb, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			return err
		}
		if !bytes.Equal(ab, bb) {
			return fmt.Errorf("%s differs between %s and %s", e.Name(), a, b)
		}
	}
	return nil
}

// checks counts operations and output checks; every failed check is a
// failed operation, and the first few failures are kept for stderr.
type checks struct {
	attempted, failed int
	errs              []string
}

// op records one operation; a non-nil err fails it.
func (c *checks) op(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// sameBytes fails when got differs from want; what names the comparison.
func sameBytes(what string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	return fmt.Errorf("%s: output differs from its reference (%d vs %d bytes)", what, len(got), len(want))
}
