package server

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected write fault")

// faultConn passes budget bytes of writes through and then fails: the
// write that crosses the budget sends the bytes that still fit and
// returns errInjected, as a socket that dies mid-write would.
type faultConn struct {
	net.Conn
	budget int // only the flushing leader writes, so no lock is needed
}

func (fc *faultConn) Write(b []byte) (int, error) {
	n := min(len(b), fc.budget)
	fc.budget -= n
	if _, err := fc.Conn.Write(b[:n]); err != nil {
		return 0, err
	}
	if n < len(b) {
		return n, errInjected
	}
	return n, nil
}

// TestClientWriteFailure pins the failure semantics of the combined
// writer: once a write fails, every call — whether its frame was in the
// failed write, still buffered, or issued afterwards — returns the write
// error instead of waiting for a reply that cannot come, the pending table
// empties, the read loop exits and no goroutine is left behind.
func TestClientWriteFailure(t *testing.T) {
	srv, _ := newTestServer(t, 2, nil)
	before := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(&faultConn{Conn: conn, budget: 4 << 10}, DefaultMaxFrame)

	const callers, maxCalls = 16, 10000
	errs := make(chan error, callers)
	for w := 0; w < callers; w++ {
		go func() {
			v := make([]byte, 64)
			for i := 0; i < maxCalls; i++ {
				var err error
				if i%2 == 0 {
					err = c.Enqueue(v)
				} else {
					_, _, err = c.Dequeue()
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- errors.New("no call failed")
		}()
	}
	for w := 0; w < callers; w++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjected) {
				t.Errorf("caller error = %v, want the write error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d callers still blocked after the write fault", callers-w, callers)
		}
	}
	select {
	case <-c.readerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("read loop still running after the write fault")
	}
	c.mu.Lock()
	stranded := len(c.pending)
	c.mu.Unlock()
	if stranded != 0 {
		t.Errorf("%d calls left pending", stranded)
	}
	if err := c.Enqueue([]byte("late")); !errors.Is(err, errInjected) {
		t.Errorf("call after the fault = %v, want the write error", err)
	}
	// The server ends the session once it sees the connection close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateConn hands a copy of each write's bytes to the test and then holds
// the write until the test releases it, parking the writer inside the
// syscall.
type gateConn struct {
	net.Conn
	writes  chan []byte
	release chan struct{}
}

func (g *gateConn) Write(b []byte) (int, error) {
	g.writes <- append([]byte(nil), b...)
	<-g.release
	return g.Conn.Write(b)
}

// TestClientFlushCombining checks the combining step deterministically:
// while the leader is parked in its write, K callers each issue m frames
// and flush, and each flush returns without writing; the leader's next
// write then carries exactly those K·m frames, every caller's in its own
// issue order, none lost or duplicated.
func TestClientFlushCombining(t *testing.T) {
	srv, _ := newTestServer(t, 1, nil)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	g := &gateConn{Conn: conn, writes: make(chan []byte, 8), release: make(chan struct{})}
	c := newClient(g, DefaultMaxFrame)
	t.Cleanup(func() { c.Close() })

	const K, m = 8, 4
	value := func(k, i int) []byte { return []byte{byte(k), byte(i)} }
	lead, err := c.start(OpEnqueue, value(K, 0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaderDone := make(chan error, 1)
	go func() { leaderDone <- c.flush() }()
	first := <-g.writes // the leader is now inside its write

	calls := make([][]*call, K)
	followers := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < m; i++ {
				cl, err := c.start(OpEnqueue, value(k, i), nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				calls[k] = append(calls[k], cl)
			}
			if err := c.flush(); err != nil {
				t.Error(err)
			}
		}()
	}
	go func() { wg.Wait(); close(followers) }()
	select {
	case <-followers:
	case b := <-g.writes:
		t.Fatalf("a follower wrote %d bytes while the leader was writing", len(b))
	case <-time.After(10 * time.Second):
		t.Fatal("followers' flushes did not return while the leader was writing")
	}

	g.release <- struct{}{}
	second := <-g.writes
	g.release <- struct{}{}
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if got := requestValues(t, first); len(got) != 1 || got[0] != [2]byte{K, 0} {
		t.Errorf("first write carried %v, want the leader's frame alone", got)
	}
	next := make([]int, K)
	for _, v := range requestValues(t, second) {
		k, i := int(v[0]), int(v[1])
		if k >= K || i != next[k] {
			t.Fatalf("second write: frame %v out of order (caller %d expects %d next)", v, k, next[k])
		}
		next[k]++
	}
	for k, n := range next {
		if n != m {
			t.Errorf("second write carried %d of caller %d's %d frames", n, k, m)
		}
	}
	all := []*call{lead}
	for _, cs := range calls {
		all = append(all, cs...)
	}
	for _, cl := range all {
		<-cl.done
		if cl.err != nil || cl.f.kind != StatusOK {
			t.Errorf("reply: err=%v kind=0x%02x", cl.err, cl.f.kind)
		}
	}
}

// requestValues decodes a written byte stream of 2-byte-payload enqueue
// frames into their payloads, in wire order.
func requestValues(t *testing.T, b []byte) [][2]byte {
	t.Helper()
	var vals [][2]byte
	for len(b) > 0 {
		n := int(binary.BigEndian.Uint32(b))
		if n != frameHeader+2 || len(b) < 4+n || b[12] != OpEnqueue {
			t.Fatalf("malformed request frame: length %d, %d bytes left", n, len(b))
		}
		vals = append(vals, [2]byte{b[13], b[14]})
		b = b[4+n:]
	}
	return vals
}
