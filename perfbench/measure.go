package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeap forces two full GC cycles — the second empties the sync.Pool
// victim caches the first filled — and returns the bytes the last cycle
// marked live.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// rtSnap is a reading of the runtime counters the per-layer metrics use.
type rtSnap struct {
	gcCPU, totalCPU float64
	allocs, allocB  uint64
	schedLat        *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
		allocB:   s[3].Value.Uint64(),
		schedLat: s[4].Value.Float64Histogram(),
	}
}

// rtDelta is the runtime's work over one measured phase.
type rtDelta struct {
	gcCPUFrac   float64
	allocs      float64
	allocB      float64
	schedP99Sec float64
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{
		allocs: float64(b.allocs - a.allocs),
		allocB: float64(b.allocB - a.allocB),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	counts := make([]uint64, len(b.schedLat.Counts))
	for i := range counts {
		counts[i] = b.schedLat.Counts[i] - a.schedLat.Counts[i]
	}
	d.schedP99Sec = histQuantile(b.schedLat.Buckets, counts, 0.99)
	return d
}

// histQuantile interpolates quantile q linearly inside the runtime
// histogram bucket that holds it.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bounds[i], bounds[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// quartile returns the q-quantile of xs, interpolating linearly between
// the order statistics around it.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// median returns the median of xs.
func median(xs []float64) float64 { return quartile(xs, 0.5) }

// latencies collects call latencies in nanoseconds for one goroutine; its
// buffer is allocated once, before any measured phase, and reused.
type latencies struct{ ns []float64 }

func newLatencies(capacity int) *latencies {
	return &latencies{ns: make([]float64, 0, capacity)}
}

func (l *latencies) add(d time.Duration) {
	if len(l.ns) < cap(l.ns) {
		l.ns = append(l.ns, float64(d))
	}
}

// mergeSorted concatenates and sorts the samples of several collectors.
func mergeSorted(ls []*latencies) []float64 {
	var dst []float64
	for _, l := range ls {
		dst = append(dst, l.ns...)
	}
	slices.Sort(dst)
	return dst
}

// loadAvg returns the 1-minute load average, or -1 if unreadable.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// memTotal returns MemTotal from /proc/meminfo in bytes.
func memTotal() (float64, error) {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemTotal:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse MemTotal: %w", err)
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no MemTotal line in /proc/meminfo")
}
