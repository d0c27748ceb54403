package core

// Allocation regression gates for the block arena (pool.go). CI runs these
// via `go test -run TestAllocs`: a change that reintroduces per-op block
// allocation shows up as allocs/op jumping from ~0.1 back to ~depth.

import (
	"sync"
	"testing"
)

func TestAllocsEnqueueDequeue(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	// Warm up: let the infarray directories and the first slab settle.
	for i := 0; i < 300; i++ {
		h.Enqueue(i)
		h.Dequeue()
	}
	avg := testing.AllocsPerRun(2000, func() {
		h.Enqueue(7)
		if _, ok := h.Dequeue(); !ok {
			t.Fatal("dequeue failed")
		}
	})
	// One Enqueue+Dequeue pair appends 2 leaf blocks and installs O(depth)
	// internal blocks, all drawn from the 64-block bump slab: ~3 blocks per
	// pair is one malloc every ~21 pairs, plus amortized infarray segment
	// growth. Anything near 1.0 means blocks are being heap-allocated
	// per op again.
	if avg > 1.0 {
		t.Errorf("allocs per Enqueue+Dequeue pair = %.2f, want <= 1", avg)
	}
}

func TestAllocsEnqueueBatch(t *testing.T) {
	q, err := New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	h := q.MustHandle(0)
	buf := make([]int, 16)
	for i := 0; i < 100; i++ {
		h.EnqueueBatch(buf)
		h.DequeueBatch(len(buf))
	}
	avg := testing.AllocsPerRun(500, func() {
		h.EnqueueBatch(buf)
		if _, n := h.DequeueBatch(len(buf)); n != len(buf) {
			t.Fatalf("drained %d of %d", n, len(buf))
		}
	})
	// EnqueueBatch copies es straight into the leaf's value log, so the
	// pair's one allocation is the DequeueBatch result slice; a second
	// means per-batch copying (or per-block allocation) is back.
	if avg > 1.0 {
		t.Errorf("allocs per EnqueueBatch+DequeueBatch pair = %.2f, want <= 1", avg)
	}
}

// TestAllocsArenaRecyclesCandidates checks the recycling path directly:
// under contention, failed Refresh CAS candidates must be reused, keeping
// steady-state allocations bounded well below one block per op.
func TestAllocsArenaRecyclesCandidates(t *testing.T) {
	const procs = 4
	q, err := New[int](procs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.MustHandle(p)
			for i := 0; i < 3000; i++ {
				h.Enqueue(i)
				h.Dequeue()
			}
		}(p)
	}
	wg.Wait()
	// The workload installed ~4 blocks per op across the 3-level tree.
	// With recycling, total block allocations are bounded by installs (the
	// immortal published blocks) plus one slab round-up per handle —
	// crucially, NOT by installs + one candidate per Refresh attempt. We
	// can't count mallocs retroactively, so assert the observable proxy:
	// the queue still works and spare stacks didn't corrupt blocks.
	for i := 0; i < 10; i++ {
		q.MustHandle(0).Enqueue(100 + i)
	}
	for i := 0; i < 10; i++ {
		v, ok := q.MustHandle(1).Dequeue()
		if !ok || v != 100+i {
			t.Fatalf("post-churn dequeue %d = (%d, %v)", i, v, ok)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d after balanced ops", q.Len())
	}
}
