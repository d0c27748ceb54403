package core

// Tests for the multi-op batch path: one leaf block carrying m operations,
// one propagation pass, responses resolved per op rank.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestBatchSequentialFIFO enqueues ascending values through handle 0 with
// a mix of Enqueue, StepEnqueue and EnqueueBatch, checks that the tree
// snapshot exposes each leaf block's values, then drains through the
// consumer handle with a cycle of batch and single dequeues (the last batch
// partial) and checks FIFO order. The log-levels case sizes its blocks so
// the leaf's value log crosses levels (at indices 64, 192, 448) mid-batch,
// at a single op and at a StepEnqueue.
func TestBatchSequentialFIFO(t *testing.T) {
	const (
		single = iota
		step
		batch
	)
	type enq struct{ kind, m int }
	cases := []struct {
		name     string
		consumer int
		enqs     []enq
	}{
		{"small", 0, []enq{{batch, 5}, {single, 1}, {batch, 3}}},
		{"log-levels", 1, []enq{
			{batch, 63}, {single, 1}, {step, 1}, {batch, 64}, {batch, 65},
			{batch, 1}, {batch, 200}, {step, 1}, {single, 1}, {batch, 63},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := New[int](2)
			if err != nil {
				t.Fatal(err)
			}
			h := q.MustHandle(0)
			next := 0
			var blocks [][]int // values of each of handle 0's leaf blocks
			for _, op := range tc.enqs {
				es := make([]int, op.m)
				for i := range es {
					es[i] = next
					next++
				}
				switch op.kind {
				case single:
					h.Enqueue(es[0])
				case step:
					h.StepEnqueue(es[0])
				case batch:
					h.EnqueueBatch(es)
				}
				blocks = append(blocks, es)
			}
			h.StepPropagate()
			checkLeafValues(t, q.Snapshot(), blocks)

			c := q.MustHandle(tc.consumer)
			want := 0
			take := func(vs []int) {
				for _, v := range vs {
					if v != want {
						t.Fatalf("dequeued %d, want %d", v, want)
					}
					want++
				}
			}
			for k := 0; want < next; k++ {
				switch n := []int{4, 1, 1, 100}[k%4]; n {
				case 1:
					v, ok := c.Dequeue()
					if !ok {
						t.Fatalf("Dequeue empty with %d values left", next-want)
					}
					take([]int{v})
				default:
					vs, got := c.DequeueBatch(n)
					if got != min(n, next-want) || len(vs) != got {
						t.Fatalf("DequeueBatch(%d) = %d values, want %d", n, got, min(n, next-want))
					}
					take(vs)
				}
			}
			if _, got := c.DequeueBatch(3); got != 0 {
				t.Fatalf("DequeueBatch on empty returned %d values", got)
			}
		})
	}
}

// checkLeafValues asserts that leaf 0's enqueue blocks in snap carry want,
// in order: the value itself for a one-enqueue block, the whole []int for
// a multi-op block.
func checkLeafValues(t *testing.T, snap TreeSnapshot, want [][]int) {
	t.Helper()
	for _, n := range snap.Nodes {
		if n.LeafID != 0 {
			continue
		}
		var got []BlockSnapshot
		for _, b := range n.Blocks {
			if b.Kind == KindEnqueue {
				got = append(got, b)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("leaf 0 has %d enqueue blocks, want %d", len(got), len(want))
		}
		for i, es := range want {
			var exp any = es
			if len(es) == 1 {
				exp = es[0]
			}
			if !reflect.DeepEqual(got[i].Element, exp) {
				t.Fatalf("leaf block %d Element = %v, want %v", got[i].Index, got[i].Element, exp)
			}
		}
		return
	}
	t.Fatal("snapshot has no leaf 0")
}

func TestBatchDegenerateSizes(t *testing.T) {
	q, err := New[int](1)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	h.EnqueueBatch(nil)
	h.EnqueueBatch([]int{})
	if vs, n := h.DequeueBatch(0); n != 0 || vs != nil {
		t.Fatalf("DequeueBatch(0) = (%v,%d)", vs, n)
	}
	if vs, n := h.DequeueBatch(-3); n != 0 || vs != nil {
		t.Fatalf("DequeueBatch(-3) = (%v,%d)", vs, n)
	}
	h.EnqueueBatch([]int{7}) // an m=1 batch is an ordinary one-value block
	if v, ok := h.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d,%v)", v, ok)
	}
}

// TestBatchCallerKeepsSlice verifies EnqueueBatch copies its argument: the
// caller mutating the slice afterwards must not corrupt queued values.
func TestBatchCallerKeepsSlice(t *testing.T) {
	q, err := New[int](1)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	es := []int{1, 2, 3}
	h.EnqueueBatch(es)
	es[0], es[1], es[2] = 100, 200, 300
	vs, n := h.DequeueBatch(3)
	if n != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("dequeued %v, want [1 2 3]", vs)
	}
}

// TestBatchAmortizesBlocks checks the point of the whole exercise: batches
// install strictly fewer blocks per operation than singles.
func TestBatchAmortizesBlocks(t *testing.T) {
	const total = 1024
	blocksPerOp := func(m int) float64 {
		q, err := New[int](4)
		if err != nil {
			t.Fatal(err)
		}
		h := q.MustHandle(0)
		for i := 0; i < total/m; i++ {
			es := make([]int, m)
			h.EnqueueBatch(es)
			h.DequeueBatch(m)
		}
		return float64(q.BlocksInstalled()) / float64(2*total)
	}
	b1, b16 := blocksPerOp(1), blocksPerOp(16)
	if b16 >= b1 {
		t.Errorf("blocks/op did not shrink with batching: m=1 %.3f, m=16 %.3f", b1, b16)
	}
}

// TestBatchConcurrentConservation hammers the batch path from many handles
// under the race detector and checks exact conservation plus per-producer
// FIFO order of the dequeued values.
func TestBatchConcurrentConservation(t *testing.T) {
	const procs = 6
	const perProc = 900 // ops per handle, mixed batch sizes
	q, err := New[int64](procs)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			rng := rand.New(rand.NewSource(int64(p) + 77))
			enq := int64(0)
			for enq < perProc {
				m := 1 + rng.Intn(8)
				if rng.Intn(2) == 0 {
					es := make([]int64, 0, m)
					for i := 0; i < m && enq < perProc; i++ {
						es = append(es, int64(p)*1_000_000+enq)
						enq++
					}
					h.EnqueueBatch(es)
				} else {
					vs, _ := h.DequeueBatch(m)
					got[p] = append(got[p], vs...)
				}
			}
		}(p)
	}
	wg.Wait()
	h := q.MustHandle(0)
	for {
		vs, n := h.DequeueBatch(64)
		if n == 0 {
			break
		}
		got[0] = append(got[0], vs...)
	}
	seen := make(map[int64]bool, procs*perProc)
	for c, vs := range got {
		last := map[int64]int64{}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d dequeued twice", v)
			}
			seen[v] = true
			prod, seq := v/1_000_000, v%1_000_000
			if prev, ok := last[prod]; ok && seq < prev {
				t.Fatalf("consumer %d: producer %d out of order (%d after %d)", c, prod, seq, prev)
			}
			last[prod] = seq
		}
	}
	if len(seen) != procs*perProc {
		t.Fatalf("dequeued %d distinct values, want %d", len(seen), procs*perProc)
	}
}

// TestBatchCounterAccounting: a batch is one BeginOp/EndBatch unit whose
// ops all land in the counter, with steps attributed once.
func TestBatchCounterAccounting(t *testing.T) {
	q, err := New[int](2)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	c := &metrics.Counter{}
	h.SetCounter(c)
	h.EnqueueBatch([]int{1, 2, 3, 4})
	if c.Enqueues != 4 {
		t.Fatalf("Enqueues = %d, want 4", c.Enqueues)
	}
	vs, n := h.DequeueBatch(6)
	if n != 4 || len(vs) != 4 {
		t.Fatalf("DequeueBatch = (%v,%d)", vs, n)
	}
	if c.Dequeues != 4 || c.NullDeqs != 2 {
		t.Fatalf("Dequeues=%d NullDeqs=%d, want 4 and 2", c.Dequeues, c.NullDeqs)
	}
	if c.TotalOps() != 10 || c.TotalSteps() == 0 {
		t.Fatalf("TotalOps=%d TotalSteps=%d", c.TotalOps(), c.TotalSteps())
	}
}
