package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
)

// Wire workload shapes.
const (
	wireShards     = 4
	wireConns      = 2
	pipeCallers    = 16 // in-flight single-op callers per connection
	pipeValue      = 64
	batchOps       = 64
	batchValue     = 512
	batchPrefill   = 64 << 10 // standing backlog of the bounded workload
	tracedEvery    = 16       // traced rounds send every 16th call traced
	drainBatch     = 1024
	prefillBatch   = 64
	pipeWorkers    = wireConns * pipeCallers
	batchWorkers   = wireConns
	prefillWorker  = batchWorkers // worker id of the prefill producer
	tracedSpanName = "client.call"
)

// service is one round's loopback server and its client connections.
type service struct {
	q     *repro.ShardedQueue[[]byte]
	srv   *repro.QueueServer
	conns []*repro.QueueClient
}

// startService builds the fabric, optionally prefills it in-process with
// the prefill producer's values, serves it on a loopback port and dials
// the workload's connections. Each connection's first round trip makes
// sure its server-side session holds its handle lease before timing.
func startService(rc *roundCtx, opts []repro.ShardedOption, prefill *producer, valueLen int) (*service, error) {
	if rc.mode == traced {
		opts = append(opts, repro.WithShardMetrics())
	}
	q, err := repro.NewShardedQueue[[]byte](wireShards, opts...)
	if err != nil {
		return nil, err
	}
	if prefill != nil {
		h, err := q.Acquire()
		if err != nil {
			q.Close()
			return nil, err
		}
		for more := true; more; {
			vs := make([][]byte, 0, prefillBatch)
			for len(vs) < prefillBatch {
				v := make([]byte, valueLen)
				if more = prefill.next(v); !more {
					break
				}
				vs = append(vs, v)
			}
			if err := h.EnqueueBatch(vs); err != nil {
				h.Release()
				q.Close()
				return nil, fmt.Errorf("prefill: %w", err)
			}
		}
		h.Release()
	}
	s := &service{q: q}
	if s.srv, err = repro.Serve("127.0.0.1:0", q); err != nil {
		q.Close()
		return nil, err
	}
	for range wireConns {
		c, err := repro.Dial(s.srv.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.conns = append(s.conns, c)
		if _, err := c.Len(); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// closeServer closes the connections and the server, which waits for
// every session to end: each releases its handle lease, folding its
// tallies into the fabric's counters, and puts any values it held back
// for its client into the fabric. It may be called more than once.
func (s *service) closeServer() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// stop closes the server and then the fabric.
func (s *service) stop() {
	s.closeServer()
	s.q.Close()
}

// finish ends a wire round after its measured phase: it closes the server,
// records the fabric's routing and (in traced rounds) cost model since
// set-up, then drains the fabric in-process and settles the ledger.
func (s *service) finish(rc *roundCtx, r *round, led *ledger, tally0 shardTally, cost0 costTotals, layer string) error {
	s.closeServer()
	if rc.mode == traced {
		costModel(cost0, readCost(s.q), r, layer)
	} else {
		fabricShape(tally0, readShardTally(s.q), r)
	}
	if err := drainFabric(s.q, led.newConsumer()); err != nil {
		return err
	}
	r.verdict = led.settle()
	r.finish(rc.lats)
	return nil
}

// callStats is what one wire caller counted.
type callStats struct {
	enqueued, dequeued, enqAsked, deqAsked, deqCalls, nulls, errors int64
}

// addCalls totals the callers' counts into the round.
func (r *round) addCalls(stats []callStats) {
	var deqCalls, nulls int64
	for _, st := range stats {
		r.enqueued += st.enqueued
		r.moved += st.enqueued + st.dequeued
		r.attempted += st.enqAsked + st.deqAsked
		r.errors += st.errors
		deqCalls += st.deqCalls
		nulls += st.nulls
	}
	if deqCalls > 0 {
		r.layer["shard.null_deq_frac"] = float64(nulls) / float64(deqCalls)
	}
}

// pipeRound runs one wire-pipelined round: 16 closed-loop single-op
// callers per connection, each alternating Enqueue and Dequeue.
func pipeRound(rc *roundCtx) (*round, error) {
	r := newRound()
	quotas := make([]int, pipeWorkers)
	for i := range quotas {
		quotas[i] = rc.values / pipeWorkers
	}
	led := newLedger(rc.nonce, pipeValue, quotas)
	t0 := time.Now()
	svc, err := startService(rc, nil, nil, pipeValue)
	if err != nil {
		return nil, fmt.Errorf("wire-pipelined: %w", err)
	}
	defer svc.stop()
	r.setup = time.Since(t0)
	tally0, cost0 := readShardTally(svc.q), readCost(svc.q)

	stats := make([]callStats, pipeWorkers)
	snap0 := svc.srv.Snapshot()
	r.measure(func() {
		var wg sync.WaitGroup
		for w := range pipeWorkers {
			wg.Add(1)
			p, c := led.producer(w), led.newConsumer()
			conn, lat, sb := svc.conns[w/pipeCallers], rc.lats[w], rc.spans(w)
			go func() {
				defer wg.Done()
				stats[w] = pipeCaller(conn, p, c, lat, sb)
			}()
		}
		wg.Wait()
	})
	snap1 := svc.srv.Snapshot()
	r.addCalls(stats)
	if rc.mode == plain {
		serverShape(snap0, snap1, r)
	}
	if err := svc.finish(rc, r, led, tally0, cost0, "core"); err != nil {
		return nil, fmt.Errorf("wire-pipelined: %w", err)
	}
	return r, nil
}

// pipeCaller is one closed-loop caller of wire-pipelined.
func pipeCaller(conn *repro.QueueClient, p *producer, c *consumer, lat *latencies, sb *spanBuf) callStats {
	var st callStats
	for i := 0; ; i++ {
		v := make([]byte, pipeValue)
		if !p.next(v) {
			return st
		}
		sampled := sb != nil && i%tracedEvery == 0
		st.enqAsked++
		t0 := time.Now()
		var err error
		var tr repro.RequestTrace
		if sampled {
			tr, err = conn.EnqueueTraced(v)
		} else {
			err = conn.Enqueue(v)
		}
		t1 := time.Now()
		lat.add(t1.Sub(t0))
		if err != nil {
			st.errors++
			p.failedLast()
		} else {
			st.enqueued++
			if sampled {
				sb.remote(tracedSpanName, t0, t1, tr)
			}
		}

		st.deqAsked++
		st.deqCalls++
		var got []byte
		var ok bool
		t0 = time.Now()
		if sampled {
			got, ok, tr, err = conn.DequeueTraced()
		} else {
			got, ok, err = conn.Dequeue()
		}
		t1 = time.Now()
		lat.add(t1.Sub(t0))
		if err != nil {
			st.errors++
			continue
		}
		if sampled {
			sb.remote(tracedSpanName, t0, t1, tr)
		}
		if ok {
			c.take(got)
			st.dequeued++
		} else {
			st.nulls++
		}
	}
}

// batchRound runs one wire-batch-bounded round: a bounded-backend fabric
// prefilled with a standing backlog, and one synchronous caller per
// connection alternating EnqueueBatch and DequeueBatch.
func batchRound(rc *roundCtx) (*round, error) {
	r := newRound()
	quotas := make([]int, batchWorkers+1)
	for i := range batchWorkers {
		quotas[i] = rc.values / batchWorkers
	}
	quotas[prefillWorker] = batchPrefill
	led := newLedger(rc.nonce, batchValue, quotas)
	t0 := time.Now()
	svc, err := startService(rc, []repro.ShardedOption{repro.WithShardBackend(repro.ShardBackendBounded)},
		led.producer(prefillWorker), batchValue)
	if err != nil {
		return nil, fmt.Errorf("wire-batch-bounded: %w", err)
	}
	defer svc.stop()
	r.setup = time.Since(t0)
	tally0, cost0 := readShardTally(svc.q), readCost(svc.q)

	stats := make([]callStats, batchWorkers)
	snap0 := svc.srv.Snapshot()
	r.measure(func() {
		var wg sync.WaitGroup
		for w := range batchWorkers {
			wg.Add(1)
			p, c := led.producer(w), led.newConsumer()
			conn, lat, sb := svc.conns[w], rc.lats[w], rc.spans(w)
			go func() {
				defer wg.Done()
				stats[w] = batchCaller(conn, p, c, lat, sb)
			}()
		}
		wg.Wait()
	})
	snap1 := svc.srv.Snapshot()
	r.addCalls(stats)
	if rc.mode == plain {
		serverShape(snap0, snap1, r)
	}
	if err := svc.finish(rc, r, led, tally0, cost0, "bounded"); err != nil {
		return nil, fmt.Errorf("wire-batch-bounded: %w", err)
	}
	return r, nil
}

// batchCaller is one synchronous caller of wire-batch-bounded. In traced
// rounds every 16th iteration also sends one traced single enqueue and
// dequeue, which sample the server's stages on the same connection.
func batchCaller(conn *repro.QueueClient, p *producer, c *consumer, lat *latencies, sb *spanBuf) callStats {
	var st callStats
	vs := make([][]byte, 0, batchOps)
	for i := 0; ; i++ {
		vs = vs[:0]
		for len(vs) < batchOps {
			v := make([]byte, batchValue)
			if !p.next(v) {
				break
			}
			vs = append(vs, v)
		}
		if len(vs) == 0 {
			return st
		}
		st.enqAsked += int64(len(vs))
		t0 := time.Now()
		err := conn.EnqueueBatch(vs)
		t1 := time.Now()
		lat.add(t1.Sub(t0))
		if err != nil {
			st.errors++
			for range vs {
				p.failedLast() // all-or-nothing: every value of the batch is in doubt
			}
		} else {
			st.enqueued += int64(len(vs))
		}

		st.deqAsked += batchOps
		st.deqCalls++
		t0 = time.Now()
		got, err := conn.DequeueBatch(batchOps)
		lat.add(time.Since(t0))
		if err != nil {
			st.errors++
		}
		for _, v := range got {
			c.take(v)
		}
		st.dequeued += int64(len(got))
		if err == nil && len(got) == 0 {
			st.nulls++
		}

		if sb != nil && i%tracedEvery == 0 {
			tracedPair(conn, p, c, sb, &st)
		}
	}
}

// tracedPair sends one traced enqueue of the producer's next value and one
// traced dequeue. Their latencies are kept out of the batch call sample.
func tracedPair(conn *repro.QueueClient, p *producer, c *consumer, sb *spanBuf, st *callStats) {
	v := make([]byte, batchValue)
	if p.next(v) {
		st.enqAsked++
		t0 := time.Now()
		tr, err := conn.EnqueueTraced(v)
		if err != nil {
			st.errors++
			p.failedLast()
		} else {
			sb.remote(tracedSpanName, t0, time.Now(), tr)
			st.enqueued++
		}
	}
	st.deqAsked++
	st.deqCalls++
	t0 := time.Now()
	got, ok, tr, err := conn.DequeueTraced()
	if err != nil {
		st.errors++
		return
	}
	sb.remote(tracedSpanName, t0, time.Now(), tr)
	if ok {
		c.take(got)
		st.dequeued++
	} else {
		st.nulls++
	}
}

// serverShape records the server's own counters over the measured phase:
// queue ops per executed window, ops per multi-op fabric call, the empty
// share of dequeue replies, the BUSY share of requests, and the mean
// in-server (socket read to reply write) latency per request frame. The
// snapshot's per-class percentiles are histogram bucket bounds, the same
// on every run, so the exact sums give the mean instead.
func serverShape(a, b repro.ServerSnapshot, r *round) {
	d := func(x, y int64) float64 { return float64(y - x) }
	if n := d(a.Server.Batches, b.Server.Batches); n > 0 {
		r.layer["server.ops_per_window"] = d(a.Server.BatchedOps, b.Server.BatchedOps) / n
	}
	if n := d(a.Server.FabricBatches, b.Server.FabricBatches); n > 0 {
		r.layer["server.ops_per_fabric_batch"] = d(a.Server.FabricBatchOps, b.Server.FabricBatchOps) / n
	}
	empty := d(a.Server.EmptyDequeues, b.Server.EmptyDequeues)
	if n := empty + d(a.Server.Dequeues, b.Server.Dequeues); n > 0 {
		r.layer["server.empty_deq_frac"] = empty / n
	}
	if n := d(a.Server.Requests, b.Server.Requests); n > 0 {
		r.layer["server.busy_frac"] = d(a.Server.Busy, b.Server.Busy) / n
	}
	if b.Obs != nil {
		var frames, ms float64
		for _, l := range []struct {
			n0, n1   int64
			ms0, ms1 float64
		}{
			{a.Obs.EnqueueLat.Count, b.Obs.EnqueueLat.Count, a.Obs.EnqueueLat.SumMs, b.Obs.EnqueueLat.SumMs},
			{a.Obs.DequeueLat.Count, b.Obs.DequeueLat.Count, a.Obs.DequeueLat.SumMs, b.Obs.DequeueLat.SumMs},
			{a.Obs.BatchLat.Count, b.Obs.BatchLat.Count, a.Obs.BatchLat.SumMs, b.Obs.BatchLat.SumMs},
			{a.Obs.NullDequeueLat.Count, b.Obs.NullDequeueLat.Count, a.Obs.NullDequeueLat.SumMs, b.Obs.NullDequeueLat.SumMs},
		} {
			frames += d(l.n0, l.n1)
			ms += l.ms1 - l.ms0
		}
		if frames > 0 {
			r.layer["server.in_server_mean_us"] = ms / frames * 1e3
		}
	}
}
