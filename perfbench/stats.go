package main

import (
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts a copy, so callers may keep appending to xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the middle half of xs: the interquartile mean,
// a centre that averages over half the samples instead of picking one.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q := len(s) / 4; len(s) > 2*q {
		s = s[q : len(s)-q]
	}
	if len(s) == 0 {
		return 0
	}
	return sum(s) / float64(len(s))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeStats is a snapshot of the Go runtime counters the per-layer
// report uses.
type runtimeStats struct {
	gcCycles, allocObjects, allocBytes uint64
	gcCPU, totalCPU                    float64
}

var runtimeSampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{gcCycles: u(0), allocObjects: u(1), allocBytes: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// allocCounter reads only the heap-allocation object count, for
// per-call allocation accounting.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// setRuntime reports GC work between two snapshots.
func setRuntime(r *result, before, after runtimeStats) {
	r.set("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles))
	r.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}

// repeat runs fn at least once, and again while one more run of the
// mean length so far still ends within budget.
func repeat(budget time.Duration, fn func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := fn(); err != nil {
			return err
		}
		el := time.Since(start)
		if el+el/time.Duration(n) > budget {
			return nil
		}
	}
}

// fmtSeconds renders samples compactly for a report note.
func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
