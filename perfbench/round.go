package main

import (
	"runtime"
	"time"
)

// mode selects what a round runs.
type mode int

const (
	plain    mode = iota // the workload as users run it, untraced
	traced               // cost-model counters on, sampled spans recorded
	bareCore             // fabric-pairs' op stream on a bare core queue
)

func (m mode) String() string {
	return [...]string{"plain", "traced", "bare-core"}[m]
}

// roundCtx is what a workload's round function gets.
type roundCtx struct {
	values int    // values the measured phase enqueues
	nonce  uint64 // run nonce for this round's keys
	mode   mode
	lats   []*latencies // one per calling goroutine, reused across rounds
	bufs   []*spanBuf   // one per calling goroutine in traced rounds, else nil
}

// spans returns goroutine i's span buffer in traced rounds, nil otherwise.
func (rc *roundCtx) spans(i int) *spanBuf {
	if rc.bufs == nil {
		return nil
	}
	return rc.bufs[i]
}

// spanCap bounds the spans one traced phase keeps, shared out among its
// goroutines.
const spanCap = 1 << 14

// round is one set-up, measured phase, drain and check.
type round struct {
	setup     time.Duration
	elapsed   time.Duration
	moved     int64 // values enqueued plus values dequeued
	enqueued  int64
	attempted int64 // values offered to enqueues plus values asked of dequeues
	errors    int64 // calls that returned an error, BUSY included
	cpu       time.Duration
	retained  float64 // live heap after the phase minus live heap before it
	p50, p99  float64 // call latency, ns
	samples   int
	rt        rtDelta
	verdict   verdict
	layer     map[string]float64
}

// newRound starts a round on a collected heap, so that the previous
// round's garbage does not slow this round's set-up.
func newRound() *round {
	runtime.GC()
	return &round{layer: make(map[string]float64)}
}

// measure runs the measured phase, bracketed by forced-GC live-heap
// readings and process CPU and runtime counter readings.
func (r *round) measure(work func()) {
	live0 := liveHeap()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	work()
	r.elapsed = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	r.rt = runtimeDelta(rt0, readRuntime())
	r.retained = liveHeap() - live0
}

// finish reduces the round's call latencies and empties the collectors.
func (r *round) finish(lats []*latencies) {
	sorted := mergeSorted(lats)
	r.samples = len(sorted)
	r.p50 = quantile(sorted, 0.50)
	r.p99 = quantile(sorted, 0.99)
	for _, l := range lats {
		l.ns = l.ns[:0]
	}
	if r.moved > 0 {
		r.layer["runtime.allocs_per_op"] = r.rt.allocs / float64(r.moved)
		r.layer["runtime.alloc_B_per_op"] = r.rt.allocB / float64(r.moved)
	}
	r.layer["runtime.gc_cpu_frac"] = r.rt.gcCPUFrac
	r.layer["runtime.sched_lat_p99_us"] = r.rt.schedP99Sec * 1e6
}

func (r *round) opsPerSec() float64 { return float64(r.moved) / r.elapsed.Seconds() }
