// Command perfbench is the repository's benchmark. It drives the queue
// system through the root package's exported API only, in one of three
// closed-loop workloads, checks exact conservation and per-producer order
// of every value, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as the last line of its output:
//
//	perfbench --workload fabric-pairs --seed 1 --seconds 10 --trace 0
//
// Each round builds a fresh queue (and server), runs a fixed number of
// values through it, measures, drains and checks; rounds repeat until the
// time is up, and each figure reported is reduced over the rounds (see
// endToEnd). Fixed rounds keep memory bounded although the default core
// backend retains every value it ever held.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// spec is one workload.
type spec struct {
	name        string
	callers     int // calling goroutines
	roundValues int // values the measured phase of one round enqueues
	// Memory pre-flight: projected peak heap is heapBase + heapPerValue ×
	// values per round.
	heapBase     float64
	heapPerValue float64
	// callsPerValue bounds the latency samples one value produces.
	callsPerValue float64
	round         func(*roundCtx) (*round, error)
	traceModes    []mode // modes a --trace 1 run measures after plain
}

var specs = []*spec{
	{
		name: "fabric-pairs", callers: fabricWorkers, roundValues: 1 << 16,
		heapBase: 64 << 20, heapPerValue: 2400, callsPerValue: 2,
		round: fabricRound, traceModes: []mode{traced, bareCore},
	},
	{
		name: "wire-pipelined", callers: pipeWorkers, roundValues: 1 << 14,
		heapBase: 64 << 20, heapPerValue: 2400, callsPerValue: 2,
		round: pipeRound, traceModes: []mode{traced},
	},
	{
		name: "wire-batch-bounded", callers: batchWorkers, roundValues: 1 << 18,
		heapBase: 64<<20 + 4*batchPrefill*batchValue, heapPerValue: 64, callsPerValue: 2.0 / batchOps,
		round: batchRound, traceModes: []mode{traced},
	},
}

// minRounds is the fewest rounds a run makes, however short its time.
const minRounds = 3

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	roundValues int
	spansDir    string
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: fabric-pairs, wire-pipelined or wire-batch-bounded")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the run's value keys derive from")
	fs.Float64Var(&o.seconds, "seconds", 10, "time one run measures for")
	fs.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	fs.IntVar(&o.roundValues, "round-values", 0, "values per round (0: the workload's default)")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory a traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.roundValues < 0 {
		return o, fmt.Errorf("--round-values must not be negative")
	}
	if findSpec(o.workload) == nil {
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	}
	return o, nil
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// preflight refuses a round size whose projected peak heap exceeds half
// of the machine's memory.
func preflight(sp *spec, values int) error {
	total, err := memTotal()
	if err != nil {
		return fmt.Errorf("memory pre-flight: %w", err)
	}
	projected := sp.heapBase + sp.heapPerValue*float64(values)
	if projected > total/2 {
		return fmt.Errorf("memory pre-flight: %d values per round of %s project a %.0f MiB peak heap, over half of MemTotal (%.0f MiB); use a smaller --round-values",
			values, sp.name, projected/(1<<20), total/2/(1<<20))
	}
	return nil
}

// phase runs rounds in one mode until its share of the time is spent.
type phase struct {
	mode   mode
	rounds []*round
}

func run(o options, stdout, stderr io.Writer) (*result, error) {
	sp := findSpec(o.workload)
	values := sp.roundValues
	if o.roundValues > 0 {
		values = o.roundValues
	}
	if err := preflight(sp, values); err != nil {
		return nil, err
	}
	man := newManifest(o, sp, values)
	if man.LoadBefore > float64(man.NProc)/2 {
		fmt.Fprintf(stderr, "perfbench: warning: load average %.2f exceeds nproc/2 = %.1f; figures will be noisy\n",
			man.LoadBefore, float64(man.NProc)/2)
	}

	modes := []mode{plain}
	if o.trace {
		modes = append(modes, sp.traceModes...)
	}
	lats := make([]*latencies, sp.callers)
	for i := range lats {
		lats[i] = newLatencies(int(math.Ceil(float64(values)/float64(sp.callers)*sp.callsPerValue)) + 64)
	}
	tr := newTracer()
	budget := time.Duration(o.seconds * float64(time.Second) / float64(len(modes)))
	var phases []*phase
	var warmup verdict
	var warmErrs, warmAttempted int64
	roundIdx := uint64(0)
	for _, m := range modes {
		ph := &phase{mode: m}
		var bufs []*spanBuf
		if m != plain {
			for range sp.callers {
				bufs = append(bufs, tr.buffer(spanCap/sp.callers+1))
			}
		}
		start := time.Now()
		var last time.Duration
		for warm := true; len(ph.rounds) < minRounds || time.Since(start)+last < budget; warm = false {
			t := time.Now()
			rc := &roundCtx{values: values, nonce: splitmix(o.seed ^ splitmix(roundIdx)), mode: m, lats: lats, bufs: bufs}
			r, err := sp.round(rc)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", m, len(ph.rounds), err)
			}
			roundIdx++
			last = time.Since(t)
			if warm {
				// The first round of a phase faults in fresh heap and
				// fills pools; its figures are not kept, but its values
				// are checked like every other round's.
				warmup.add(r.verdict)
				warmErrs += r.errors
				warmAttempted += r.attempted
				continue
			}
			ph.rounds = append(ph.rounds, r)
			fmt.Fprintf(stderr, "round %d %s: %.0f ops/s p50 %.1fus p99 %.1fus cpu %.0fns/op retained %.2fB/value setup %.4fs\n",
				roundIdx, m, r.opsPerSec(), r.p50/1e3, r.p99/1e3, float64(r.cpu)/float64(r.moved),
				r.retained/float64(r.enqueued), r.setup.Seconds())
		}
		phases = append(phases, ph)
	}

	v, attempted, errs := warmup, warmAttempted, warmErrs
	for _, ph := range phases {
		for _, r := range ph.rounds {
			v.add(r.verdict)
			attempted += r.attempted
			errs += r.errors
			man.Rounds[ph.mode.String()]++
			man.ValuesEnqueued += r.enqueued
			man.ValuesMoved += r.moved
		}
	}
	failed := errs + v.failures()
	man.LoadAfter = loadAvg()
	man.Check = v
	man.Errors = errs
	man.Attempted = attempted

	plainRounds := phases[0].rounds
	e2e := endToEnd(plainRounds)
	man.CallSamples = sumSamples(plainRounds)
	printTable(stdout, sp.name, e2e, man.CallSamples)
	// failed_frac is printed for people but kept out of the result's
	// metrics: it is 0 on every correct run, and the result's failed and
	// attempted carry it.
	fmt.Fprintf(stdout, "%-28s %14.6g %s\n", "failed_frac", float64(failed)/float64(max(attempted, 1)), "fraction")

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if o.trace {
		spans, dropped := tr.all()
		res.Metrics = perLayer(phases, spans)
		man.Spans, man.SpansDropped = len(spans), dropped
		if o.spansDir != "" {
			path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, o.seed))
			if err := writeSpans(path, spans); err != nil {
				return nil, err
			}
			man.SpansFile = path
		}
		printTable(stdout, sp.name+" per-layer", res.Metrics, -1)
	}
	if b, err := json.Marshal(map[string]any{"manifest": man}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d failures: %d call errors, %s\n", failed, errs, v)
	}
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// endToEnd reduces the plain rounds to the end-to-end metrics. Memory and
// set-up figures are medians over rounds. Time figures are the better
// quartile over rounds — the lower for costs and latencies, the upper for
// throughput: other tenants of a shared host only ever slow a round
// down, and on a small box they disturb a varying share of rounds, which
// moves a median from run to run. A tail the system causes in every round
// (a GC pause, say) still shows, as it is inside each round's p99.
func endToEnd(rs []*round) map[string]metric {
	per := func(f func(r *round) float64) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return xs
	}
	return map[string]metric{
		"ops_per_s":   {quartile(per((*round).opsPerSec), 0.75), "1/s"},
		"call_p50_us": {quartile(per(func(r *round) float64 { return r.p50 / 1e3 }), 0.25), "us"},
		"call_p99_us": {quartile(per(func(r *round) float64 { return r.p99 / 1e3 }), 0.25), "us"},
		"cpu_ns_per_op": {quartile(per(func(r *round) float64 {
			return float64(r.cpu.Nanoseconds()) / float64(r.moved)
		}), 0.25), "ns"},
		"heap_retained_B_per_op": {median(per(func(r *round) float64 {
			return r.retained / float64(r.enqueued)
		})), "B"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"setup_s":     {median(per(func(r *round) float64 { return r.setup.Seconds() })), "s"},
	}
}

func sumSamples(rs []*round) int {
	n := 0
	for _, r := range rs {
		n += r.samples
	}
	return n
}

// perLayerNames is every per-layer metric and its unit. A layer a workload
// does not exercise reports 0.
var perLayerNames = []struct{ name, unit string }{
	{"core.steps_per_op", "count"},
	{"core.cas_per_op", "count"},
	{"core.cas_fail_frac", "fraction"},
	{"core.max_op_steps", "count"},
	{"core.call_p50_ns", "ns"},
	{"bounded.steps_per_op", "count"},
	{"bounded.cas_per_op", "count"},
	{"bounded.max_op_steps", "count"},
	{"shard.self_p50_ns", "ns"},
	{"shard.pair_frac", "fraction"},
	{"shard.null_deq_frac", "fraction"},
	{"shard.home_skew", "ratio"},
	{"server.ops_per_window", "count"},
	{"server.ops_per_fabric_batch", "count"},
	{"server.empty_deq_frac", "fraction"},
	{"server.busy_frac", "fraction"},
	{"server.wait_p50_us", "us"},
	{"server.wait_p99_us", "us"},
	{"server.fabric_p50_us", "us"},
	{"server.fabric_p99_us", "us"},
	{"server.reply_p50_us", "us"},
	{"server.reply_p99_us", "us"},
	{"server.in_server_mean_us", "us"},
	{"wire.net_p50_us", "us"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_B_per_op", "B"},
	{"runtime.sched_lat_p99_us", "us"},
	{"trace_overhead_frac", "fraction"},
}

// perLayer reduces a traced run to the per-layer metrics. Each counter
// comes from the first phase that records it: the plain rounds for the
// counters that cost nothing to read (routing, server, runtime), the
// traced rounds for the cost model, which needs a step-counting fabric.
// Stage times come from the traced calls' spans, and the bare core call
// latency from the bare-core rounds.
func perLayer(phases []*phase, spans []span) map[string]metric {
	vals := make(map[string]float64)
	byMode := make(map[mode][]*round)
	for _, ph := range phases {
		byMode[ph.mode] = ph.rounds
		keys := make(map[string][]float64)
		for _, r := range ph.rounds {
			for k, x := range r.layer {
				keys[k] = append(keys[k], x)
			}
		}
		for k, xs := range keys {
			if _, done := vals[k]; !done {
				vals[k] = median(xs)
			}
		}
	}
	medOf := func(rs []*round, f func(*round) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	p50 := func(r *round) float64 { return r.p50 }
	if core := byMode[bareCore]; len(core) > 0 {
		vals["core.call_p50_ns"] = medOf(core, p50)
		vals["shard.self_p50_ns"] = medOf(byMode[plain], p50) - vals["core.call_p50_ns"]
	}
	if tr := byMode[traced]; len(tr) > 0 {
		vals["trace_overhead_frac"] = 1 - medOf(tr, (*round).opsPerSec)/medOf(byMode[plain], (*round).opsPerSec)
	}
	self := selfTimes(spans)
	for _, stage := range []string{"server.wait", "server.fabric", "server.reply"} {
		xs := self[stage]
		if len(xs) == 0 {
			continue
		}
		slices.Sort(xs)
		vals[stage+"_p50_us"] = quantile(xs, 0.50) / 1e3
		vals[stage+"_p99_us"] = quantile(xs, 0.99) / 1e3
	}
	if xs := self[tracedSpanName]; len(xs) > 0 {
		slices.Sort(xs)
		vals["wire.net_p50_us"] = quantile(xs, 0.50) / 1e3
	}
	out := make(map[string]metric, len(perLayerNames))
	for _, n := range perLayerNames {
		out[n.name] = metric{vals[n.name], n.unit}
	}
	return out
}

// printTable prints metrics one per line, sorted by name, for people.
func printTable(w io.Writer, title string, m map[string]metric, samples int) {
	fmt.Fprintf(w, "# %s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		line := fmt.Sprintf("%-28s %14.6g %s", k, m[k].Value, m[k].Unit)
		if samples >= 0 && (k == "call_p50_us" || k == "call_p99_us") {
			line += fmt.Sprintf("  (n=%d)", samples)
		}
		fmt.Fprintln(w, line)
	}
}

// splitmix is the SplitMix64 finalizer: it turns a seed and a round index
// into a run nonce.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
