package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckerCounts injects each kind of fault into an otherwise clean
// round and checks that the ledger counts exactly that fault.
func TestCheckerCounts(t *testing.T) {
	const nonce, size = 0xfeed, 64
	type take struct {
		seq   uint64
		nonce uint64
	}
	clean := []take{{0, nonce}, {1, nonce}, {2, nonce}, {3, nonce}}
	for _, tc := range []struct {
		name  string
		takes []take
		want  verdict
	}{
		{"clean", clean, verdict{Produced: 4, Consumed: 4}},
		{"duplicated", append(clean, take{2, nonce}), verdict{Produced: 4, Consumed: 4, Duplicated: 1}},
		{"lost", clean[:3], verdict{Produced: 4, Consumed: 3, Lost: 1}},
		{"reordered", []take{{0, nonce}, {2, nonce}, {1, nonce}, {3, nonce}}, verdict{Produced: 4, Consumed: 4, Reordered: 1}},
		{"foreign", append(clean, take{1, nonce + 1}), verdict{Produced: 4, Consumed: 4, Foreign: 1}},
		{"never issued", append(clean[:3], take{3, nonce}, take{7, nonce}), verdict{Produced: 4, Consumed: 4, Foreign: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			led := newLedger(nonce, size, []int{8})
			p := led.producer(0)
			for range 4 {
				if !p.next(make([]byte, size)) {
					t.Fatal("quota exhausted early")
				}
			}
			c := led.newConsumer()
			for _, tk := range tc.takes {
				v := make([]byte, size)
				putKey(v, tk.nonce, 0, tk.seq)
				c.take(v)
			}
			if got := led.settle(); got != tc.want {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCheckerRejectsMalformed covers values no producer could have made.
func TestCheckerRejectsMalformed(t *testing.T) {
	led := newLedger(1, 64, []int{4})
	led.producer(0).next(make([]byte, 64))
	c := led.newConsumer()
	short := make([]byte, 32)
	putKey(short, 1, 0, 0)
	c.take(short)
	bad := make([]byte, 64)
	putKey(bad, 1, 0, 0)
	bad[63] ^= 1 // corrupt the trailer
	c.take(bad)
	unknown := make([]byte, 64)
	putKey(unknown, 1, 9, 0) // no worker 9
	c.take(unknown)
	want := verdict{Produced: 1, Lost: 1, Foreign: 3}
	if got := led.settle(); got != want {
		t.Errorf("got %v, want %v", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyValues sizes the self-test's rounds; each is divisible by its
// workload's caller count.
var tinyValues = map[string]int{
	"fabric-pairs":       1 << 12,
	"wire-pipelined":     1 << 11,
	"wire-batch-bounded": 1 << 13,
}

// TestSelf runs every workload at a tiny size, untraced and traced, and
// checks that each declared metric is reported with its unit and a finite
// value, that no value failed its check, and that the layer controls
// read as the workload design predicts.
func TestSelf(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	declared := map[bool][]struct{ Name, Unit string }{false: bf.EndToEnd, true: bf.PerLayer}
	retained := make(map[string]float64)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 0.2, trace: trace,
				roundValues: tinyValues[w.Name], spansDir: t.TempDir()}
			res, err := run(o, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.Name, trace, len(res.Metrics), len(declared[trace]))
			}
			for _, d := range declared[trace] {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
					continue
				}
				if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, want a finite value in %q", w.Name, trace, d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			if !trace {
				retained[w.Name] = res.Metrics["heap_retained_B_per_op"].Value
				continue
			}
			for name, m := range res.Metrics {
				idle := w.Name == "fabric-pairs" && (strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "wire.")) ||
					w.Name != "wire-batch-bounded" && strings.HasPrefix(name, "bounded.") ||
					w.Name == "wire-batch-bounded" && strings.HasPrefix(name, "core.")
				if idle && m.Value != 0 {
					t.Errorf("%s: %s = %v from a layer the workload does not use", w.Name, name, m.Value)
				}
			}
			spans, err := filepath.Glob(filepath.Join(o.spansDir, "*.jsonl"))
			if err != nil || len(spans) != 1 {
				t.Errorf("%s: spans files %v (%v), want one", w.Name, spans, err)
			}
		}
	}
	if b, p := retained["wire-batch-bounded"], retained["wire-pipelined"]; b >= p/10 {
		t.Errorf("heap retained per value: bounded backend %v B, core backend %v B; want bounded below a tenth", b, p)
	}
}

// TestPreflightRefusesOversizedRounds checks the memory pre-flight.
func TestPreflightRefusesOversizedRounds(t *testing.T) {
	sp := findSpec("fabric-pairs")
	if err := preflight(sp, sp.roundValues); err != nil {
		t.Fatalf("default round refused: %v", err)
	}
	if err := preflight(sp, 1<<40); err == nil || !strings.Contains(err.Error(), "MemTotal") {
		t.Fatalf("oversized round: err = %v, want a MemTotal refusal", err)
	}
}

// TestLayerMap checks that layers.json maps every per-layer metric of
// BENCHMARK.json to end-to-end metrics and workloads that exist, and
// names the busiest and idlest layers of every workload.
func TestLayerMap(t *testing.T) {
	bf := readBenchmarkFile(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers    map[string]string
		Workloads map[string]struct {
			Why         string
			Most, Least []string
		}
		PerLayer map[string]struct{ Moves, On []string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{"failed_frac": true}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	workloads := make(map[string]bool)
	for _, w := range bf.Workloads {
		workloads[w.Name] = true
		wl, ok := lm.Workloads[w.Name]
		if !ok || wl.Why == "" || len(wl.Most) == 0 || len(wl.Least) == 0 {
			t.Errorf("workload %s: missing why, most or least", w.Name)
		}
		for _, l := range append(wl.Most, wl.Least...) {
			if _, ok := lm.Layers[l]; !ok {
				t.Errorf("workload %s: unknown layer %s", w.Name, l)
			}
		}
	}
	if len(lm.PerLayer) != len(bf.PerLayer) {
		t.Errorf("layers.json maps %d per-layer metrics, BENCHMARK.json declares %d", len(lm.PerLayer), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		pl, ok := lm.PerLayer[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s is not mapped", m.Name)
			continue
		}
		for _, e := range pl.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range pl.On {
			if !workloads[w] {
				t.Errorf("%s is mapped to unknown workload %s", m.Name, w)
			}
		}
	}
	if len(perLayerNames) != len(bf.PerLayer) {
		t.Errorf("the benchmark reports %d per-layer metrics, BENCHMARK.json declares %d", len(perLayerNames), len(bf.PerLayer))
	}
}
