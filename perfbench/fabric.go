package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
)

// fabricPairs shape: two goroutines, each with its own leased handle,
// alternating Enqueue and Dequeue on a 4-shard default fabric.
const (
	fabricShards  = 4
	fabricWorkers = 2
	fabricValue   = 64
	spanEvery     = 64 // traced rounds record every 64th iteration as spans
)

// pairOps is one goroutine's view of a queue: the fabric's leased handle
// or a bare core handle.
type pairOps struct {
	enq func([]byte) error
	deq func() ([]byte, bool)
}

// pairStats is what one fabric-pairs goroutine counted.
type pairStats struct {
	enqueued, dequeued, nulls, errors int64
}

// runPairs is one goroutine's closed loop: enqueue the next keyed value,
// then dequeue, timing each call, until the producer's quota is used up.
func runPairs(ops pairOps, p *producer, c *consumer, lat *latencies, sb *spanBuf, prefix string) pairStats {
	var st pairStats
	for i := 0; ; i++ {
		v := make([]byte, fabricValue)
		if !p.next(v) {
			return st
		}
		t0 := time.Now()
		err := ops.enq(v)
		t1 := time.Now()
		got, ok := ops.deq()
		t2 := time.Now()
		lat.add(t1.Sub(t0))
		lat.add(t2.Sub(t1))
		if err != nil {
			st.errors++
			p.failedLast()
		} else {
			st.enqueued++
		}
		if ok {
			c.take(got)
			st.dequeued++
		} else {
			st.nulls++
		}
		if sb != nil && i%spanEvery == 0 {
			sb.call(prefix+".enqueue", t0, t1)
			sb.call(prefix+".dequeue", t1, t2)
		}
	}
}

// fabricRound runs one fabric-pairs round: a fresh fabric (or, in the
// bare-core phase, a bare core queue with the fabric's handle count), two
// looping goroutines, then a drain that must account for every value.
func fabricRound(rc *roundCtx) (*round, error) {
	if rc.mode == bareCore {
		return coreRound(rc)
	}
	r := newRound()
	t0 := time.Now()
	var opts []repro.ShardedOption
	if rc.mode == traced {
		opts = append(opts, repro.WithShardMetrics())
	}
	q, err := repro.NewShardedQueue[[]byte](fabricShards, opts...)
	if err != nil {
		return nil, fmt.Errorf("fabric-pairs: %w", err)
	}
	defer q.Close()
	hs := make([]*repro.ShardedHandle[[]byte], fabricWorkers)
	for i := range hs {
		if hs[i], err = q.Acquire(); err != nil {
			return nil, fmt.Errorf("fabric-pairs: acquire: %w", err)
		}
	}
	r.setup = time.Since(t0)
	tally0, cost0 := readShardTally(q), readCost(q)

	led, prods, cons := pairLedger(rc)
	stats := make([]pairStats, fabricWorkers)
	r.measure(func() {
		var wg sync.WaitGroup
		for i, h := range hs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ops := pairOps{enq: h.Enqueue, deq: h.Dequeue}
				stats[i] = runPairs(ops, prods[i], cons[i], rc.lats[i], rc.spans(i), "shard")
			}()
		}
		wg.Wait()
	})
	for _, h := range hs {
		h.Release() // folds the handles' tallies into ShardStats/ShardSummaries
	}
	r.addPairs(stats)
	if rc.mode == traced {
		costModel(cost0, readCost(q), r, "core")
	} else {
		fabricShape(tally0, readShardTally(q), r)
	}

	if err := drainFabric(q, led.newConsumer()); err != nil {
		return nil, fmt.Errorf("fabric-pairs: %w", err)
	}
	r.verdict = led.settle()
	r.finish(rc.lats)
	return r, nil
}

// coreRound runs the fabric-pairs op stream on a bare core queue sized to
// the fabric's default handle count: the fabric-pairs call latency minus
// this one is the shard layer's own price.
func coreRound(rc *roundCtx) (*round, error) {
	r := newRound()
	t0 := time.Now()
	probe, err := repro.NewShardedQueue[[]byte](1)
	if err != nil {
		return nil, fmt.Errorf("fabric-pairs: %w", err)
	}
	procs := probe.MaxHandles()
	probe.Close()
	q, err := repro.NewQueue[[]byte](procs)
	if err != nil {
		return nil, fmt.Errorf("fabric-pairs: core: %w", err)
	}
	hs := make([]*repro.Handle[[]byte], fabricWorkers)
	for i := range hs {
		hs[i] = q.MustHandle(i)
	}
	r.setup = time.Since(t0)

	led, prods, cons := pairLedger(rc)
	stats := make([]pairStats, fabricWorkers)
	r.measure(func() {
		var wg sync.WaitGroup
		for i, h := range hs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ops := pairOps{enq: func(v []byte) error { h.Enqueue(v); return nil }, deq: h.Dequeue}
				stats[i] = runPairs(ops, prods[i], cons[i], rc.lats[i], rc.spans(i), "core")
			}()
		}
		wg.Wait()
	})
	r.addPairs(stats)
	drain := led.newConsumer()
	for {
		vs, n := hs[0].DequeueBatch(drainBatch)
		if n == 0 {
			break
		}
		for _, v := range vs[:n] {
			drain.take(v)
		}
	}
	r.verdict = led.settle()
	r.finish(rc.lats)
	return r, nil
}

// drainFabric empties a fabric in-process into one consumer.
func drainFabric(q *repro.ShardedQueue[[]byte], c *consumer) error {
	h, err := q.Acquire()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	defer h.Release()
	for {
		vs, n := h.DequeueBatch(drainBatch)
		if n == 0 {
			return nil
		}
		for _, v := range vs[:n] {
			c.take(v)
		}
	}
}

// pairLedger splits the round's values evenly between the two workers.
func pairLedger(rc *roundCtx) (*ledger, []*producer, []*consumer) {
	quotas := make([]int, fabricWorkers)
	for i := range quotas {
		quotas[i] = rc.values / fabricWorkers
	}
	led := newLedger(rc.nonce, fabricValue, quotas)
	prods := make([]*producer, fabricWorkers)
	cons := make([]*consumer, fabricWorkers)
	for i := range prods {
		prods[i] = led.producer(i)
		cons[i] = led.newConsumer()
	}
	return led, prods, cons
}

// addPairs totals the workers' counts into the round.
func (r *round) addPairs(stats []pairStats) {
	var deqCalls, nulls int64
	for _, st := range stats {
		r.enqueued += st.enqueued
		r.moved += st.enqueued + st.dequeued
		r.attempted += st.enqueued + st.errors + st.dequeued + st.nulls
		r.errors += st.errors
		deqCalls += st.dequeued + st.nulls
		nulls += st.nulls
	}
	if deqCalls > 0 {
		r.layer["shard.null_deq_frac"] = float64(nulls) / float64(deqCalls)
	}
}

// shardTally is the fabric's per-shard routing tallies. They cover
// released handles only, so read them with no lease outstanding.
type shardTally struct{ enqs, deqs, pairs []int64 }

func readShardTally(q *repro.ShardedQueue[[]byte]) shardTally {
	var t shardTally
	for _, s := range q.ShardStats() {
		t.enqs = append(t.enqs, s.Enqueues)
		t.deqs = append(t.deqs, s.Dequeues)
		t.pairs = append(t.pairs, s.Pairs)
	}
	return t
}

// fabricShape records the fabric's routing between two tallies: the share
// of dequeues served by enqueue/dequeue elimination, and how unevenly
// homes spread enqueues over shards (max over mean).
func fabricShape(a, b shardTally, r *round) {
	var pairs, deqs, enqs, maxEnq int64
	for j := range b.enqs {
		e := b.enqs[j] - a.enqs[j]
		pairs += b.pairs[j] - a.pairs[j]
		deqs += b.deqs[j] - a.deqs[j]
		enqs += e
		maxEnq = max(maxEnq, e)
	}
	if deqs > 0 {
		r.layer["shard.pair_frac"] = float64(pairs) / float64(deqs)
	}
	if enqs > 0 {
		r.layer["shard.home_skew"] = float64(maxEnq) / (float64(enqs) / float64(len(b.enqs)))
	}
}

// costTotals is the paper's cost model summed over the fabric's shards.
// It needs a fabric built WithShardMetrics, and covers released handles
// only.
type costTotals struct{ ops, steps, cas, casFail, maxSteps float64 }

func readCost(q *repro.ShardedQueue[[]byte]) costTotals {
	var c costTotals
	for _, s := range q.ShardSummaries() {
		c.ops += float64(s.Ops)
		c.steps += s.StepsPerOp * float64(s.Ops)
		c.cas += float64(s.TotalCAS)
		c.casFail += s.CASFailRate * float64(s.TotalCAS)
		c.maxSteps = max(c.maxSteps, float64(s.MaxOpSteps))
	}
	return c
}

// costModel records shared-memory steps and CAS per queue operation, the
// CAS failure share and the worst single operation between two readings
// (the worst operation is over the fabric's lifetime).
func costModel(a, b costTotals, r *round, layer string) {
	ops := b.ops - a.ops
	if ops <= 0 {
		return
	}
	r.layer[layer+".steps_per_op"] = (b.steps - a.steps) / ops
	r.layer[layer+".cas_per_op"] = (b.cas - a.cas) / ops
	r.layer[layer+".max_op_steps"] = b.maxSteps
	if cas := b.cas - a.cas; layer == "core" && cas > 0 {
		r.layer["core.cas_fail_frac"] = (b.casFail - a.casFail) / cas
	}
}
