package server

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"repro/internal/shard"
)

// rawConn is a minimal wire-speaking test driver: preencoded request
// bursts, in-place reply parsing, no per-frame allocation — so MemStats
// deltas taken around its loop charge the server, not the driver.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	buf  []byte
	r, w int
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, buf: make([]byte, 1<<20)}
}

func (rc *rawConn) write(b []byte) {
	if _, err := rc.conn.Write(b); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) fill(need int) {
	if rc.w-rc.r >= need {
		return
	}
	if rc.r > 0 {
		copy(rc.buf, rc.buf[rc.r:rc.w])
		rc.w -= rc.r
		rc.r = 0
	}
	for rc.w-rc.r < need {
		n, err := rc.conn.Read(rc.buf[rc.w:])
		if err != nil {
			rc.t.Fatalf("raw read: %v", err)
		}
		rc.w += n
	}
}

// reply reads one frame, returning its status (trace flag stripped) and
// payload (span block stripped; aliases the scan buffer).
func (rc *rawConn) reply() (byte, []byte) {
	rc.fill(4)
	n := int(binary.BigEndian.Uint32(rc.buf[rc.r:]))
	rc.fill(4 + n)
	body := rc.buf[rc.r+4 : rc.r+4+n]
	rc.r += 4 + n
	kind, payload := body[8], body[9:]
	if kind&OpTraceFlag != 0 {
		kind &^= OpTraceFlag
		payload = payload[traceBlockLen:]
	}
	return kind, payload
}

// allocsServer starts a pooled loopback server shaped for burst-W raw
// drivers.
func allocsServer(t *testing.T, w int) *Server {
	t.Helper()
	q, err := shard.New[[]byte](2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", q,
		WithObservability(true), WithWindow(w), WithBatchMax(w))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// measureAllocsPerFrame runs round() (answering frames request frames per
// call) until warm, then measures process-wide allocations per answered
// frame over the measured calls, AllocsPerRun-style.
func measureAllocsPerFrame(t *testing.T, frames int, round func()) float64 {
	t.Helper()
	const warm, runs = 8, 24
	for i := 0; i < warm; i++ {
		round()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(frames*runs)
}

// TestAllocsPerFrame pins the pooled hot path's per-frame allocation
// budget on a live loopback server, for the single-op, batch, and traced
// wire shapes. The ceilings are deliberately above the observed values
// (which include scheduler and GC jitter) but far below one allocation
// per value — the regression this test exists to catch is the return of
// per-frame ingress buffers, per-reply payload materialization, or
// per-value copies surviving delivery.
func TestAllocsPerFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the measured path; the CI allocation-gate step runs this without -race")
	}
	const (
		W  = 64
		vs = 128
	)
	cases := []struct {
		name    string
		m       int
		traced  bool
		ceiling float64 // allocs per answered frame (enq+deq averaged)
	}{
		// Observed steady state: ~0.02 (single untraced: pool hits all
		// around), ~0.65 (batch: the fabric's per-block element-header
		// copy), +1 on traced rows (one span record per sampled frame).
		// Ceilings sit ~3x above to absorb GC and scheduler jitter while
		// still failing hard if any per-frame or per-value allocation
		// returns to the path (each such regression adds >= 1).
		{"enq_deq", 1, false, 0.5},
		{"enq_deq_traced", 1, true, 1.8},
		{"batch8", 8, false, 1.5},
		{"batch64", 64, false, 1.5},
		{"batch64_traced", 64, true, 2.8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := allocsServer(t, W)
			rc := dialRaw(t, srv.Addr().String())
			enq, deq := buildBurst(tc.m, vs, W, tc.traced)
			round := func() {
				rc.write(enq)
				for i := 0; i < W; i++ {
					if kind, _ := rc.reply(); kind != StatusOK {
						t.Fatalf("enqueue reply status 0x%02x", kind)
					}
				}
				rc.write(deq)
				for i := 0; i < W; i++ {
					kind, _ := rc.reply()
					if kind != StatusOK && kind != StatusEmpty {
						t.Fatalf("dequeue reply status 0x%02x", kind)
					}
				}
			}
			got := measureAllocsPerFrame(t, 2*W, round)
			t.Logf("m=%d traced=%v: %.3f allocs/frame", tc.m, tc.traced, got)
			if got > tc.ceiling {
				t.Errorf("allocs/frame %.3f exceeds ceiling %.2f", got, tc.ceiling)
			}
		})
	}
}

// buildBurst preencodes W enqueue frames of m values and W matching
// dequeue frames.
func buildBurst(m, vs, w int, traced bool) (enq, deq []byte) {
	value := make([]byte, vs)
	stamp := make([]byte, traceStampLen)
	var cnt, lenw, req [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(m))
	binary.BigEndian.PutUint32(lenw[:], uint32(vs))
	binary.BigEndian.PutUint32(req[:], uint32(m))
	for i := 0; i < w; i++ {
		eop, dop := OpEnqueue, OpDequeue
		if m > 1 {
			eop, dop = OpEnqueueBatch, OpDequeueBatch
		}
		var eparts, dparts [][]byte
		if traced {
			eop |= OpTraceFlag
			dop |= OpTraceFlag
			eparts = append(eparts, stamp)
			dparts = append(dparts, stamp)
		}
		if m > 1 {
			eparts = append(eparts, cnt[:])
			for j := 0; j < m; j++ {
				eparts = append(eparts, lenw[:], value)
			}
			dparts = append(dparts, req[:])
		} else {
			eparts = append(eparts, value)
		}
		enq = appendFrame(enq, uint64(i+1), eop, eparts...)
		deq = appendFrame(deq, uint64(i+1), dop, dparts...)
	}
	return enq, deq
}

// ackPipe returns the client end of an in-memory pipe whose far end acks
// every request frame with an empty OK reply, without allocating — so
// allocations counted around a call over it are the client's own.
func ackPipe(t *testing.T) net.Conn {
	cli, far := net.Pipe()
	t.Cleanup(func() { far.Close() })
	go func() {
		buf := make([]byte, 1<<20)
		ack := make([]byte, 4+frameHeader)
		binary.BigEndian.PutUint32(ack, frameHeader)
		ack[12] = StatusOK
		r, w := 0, 0
		for {
			n, err := far.Read(buf[w:])
			if err != nil {
				return
			}
			w += n
			for w-r >= 4 && w-r >= 4+int(binary.BigEndian.Uint32(buf[r:])) {
				copy(ack[4:12], buf[r+4:r+12])
				r += 4 + int(binary.BigEndian.Uint32(buf[r:]))
				if _, err := far.Write(ack); err != nil {
					return
				}
			}
			w = copy(buf, buf[r:w])
			r = 0
		}
	}()
	return cli
}

// TestAllocsClient pins the client's per-call allocations for a
// synchronous Enqueue+Dequeue pair and a 64 × 512 B EnqueueBatch, which
// ride the flush-combining egress. Over a loopback server the count is
// process-wide, so it includes the server's share (the batch's 64 comes
// from the server copying each value into fabric-owned bytes); the
// ceilings are the highest the previous client — one bufio.Writer and
// one retained encode scratch per connection — measured: pair 1 on this
// server and 1–3 on a default-option one, batch 64–65. Over an acking
// pipe the count is the client's alone, and the previous client measured
// exactly 0 for both: a warmed call must allocate no encode scratch,
// which also pins the retention rule (a buffer dropped after each write
// would be reallocated).
func TestAllocsClient(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-sensitive; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the measured path; the CI allocation-gate step runs this without -race")
	}
	v := make([]byte, 64)
	vals := make([][]byte, 64)
	for i := range vals {
		vals[i] = make([]byte, 512)
	}
	measure := func(t *testing.T, c *Client, pairCeiling, batchCeiling float64) {
		pair := testing.AllocsPerRun(200, func() {
			if err := c.Enqueue(v); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Dequeue(); err != nil {
				t.Fatal(err)
			}
		})
		batch := testing.AllocsPerRun(200, func() {
			if err := c.EnqueueBatch(vals); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("allocs/call: enqueue+dequeue %.2f, 64 x 512 B batch %.2f", pair, batch)
		if pair > pairCeiling {
			t.Errorf("enqueue+dequeue: %.2f allocs, ceiling %.0f", pair, pairCeiling)
		}
		if batch > batchCeiling {
			t.Errorf("batch: %.2f allocs, ceiling %.0f", batch, batchCeiling)
		}
		c.wmu.Lock()
		retained := cap(c.out) + cap(c.spare)
		c.wmu.Unlock()
		if retained > fwRetain {
			t.Errorf("idle client retains %d B of egress buffers, over %d", retained, fwRetain)
		}
	}
	t.Run("loopback", func(t *testing.T) {
		srv := allocsServer(t, 64)
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		measure(t, c, 3, 65)
	})
	t.Run("client_only", func(t *testing.T) {
		c := newClient(ackPipe(t), DefaultMaxFrame)
		t.Cleanup(func() { c.Close() })
		measure(t, c, 0, 0)
	})
}
