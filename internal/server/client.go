package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"
)

// Client-visible errors.
var (
	// ErrBusy reports that the server's in-flight window was full and the
	// request was rejected; retry after draining some pending replies.
	ErrBusy = errors.New("server: busy, in-flight window full")
	// ErrClosedQueue reports an enqueue against a closed fabric.
	ErrClosedQueue = errors.New("server: queue is closed")
	// ErrClientClosed reports use of a Client after Close (or after its
	// connection failed).
	ErrClientClosed = errors.New("server: client closed")
)

// call is one in-flight request. The reply is delivered on done (for
// synchronous calls a dedicated buffered channel; pipelined callers may
// share one completion channel sized so the reader never blocks). tag is
// opaque caller context carried through the pipeline (e.g. the load
// generator's per-op schedule metadata).
type call struct {
	f    frame
	err  error
	done chan *call
	tag  any

	// recvNs is the read loop's receive stamp, taken only for traced
	// replies (the flag on the status byte marks them); it closes the span
	// on the client's clock. 0 for plain replies.
	recvNs int64

	// own is the call's private completion channel, created once and kept
	// across pool cycles for synchronous round trips (pipelined callers
	// pass their own shared channel instead).
	own chan *call
}

// callPool recycles call structs between putCall and getCall, so
// steady-state traffic allocates no per-request bookkeeping.
var callPool = sync.Pool{New: func() any { return new(call) }}

// getCall returns a reset call completing on done (or on its private
// channel when done is nil).
func getCall(done chan *call, tag any) *call {
	cl := callPool.Get().(*call)
	cl.f = frame{}
	cl.err = nil
	cl.tag = tag
	cl.recvNs = 0
	if done == nil {
		if cl.own == nil {
			cl.own = make(chan *call, 1)
		}
		done = cl.own
	}
	cl.done = done
	return cl
}

// putCall recycles a completed call. Callers must have copied everything
// they need out of it — the reply frame, the error, the tag — and must be
// the sole holder (a call is completed exactly once, so the receiver of
// that completion is).
func putCall(cl *call) {
	cl.f = frame{}
	cl.err = nil
	cl.done = nil
	cl.tag = nil
	callPool.Put(cl)
}

// Client speaks the wire protocol over one TCP connection. All methods are
// safe for concurrent use; requests issued concurrently are pipelined on
// the single connection and matched to replies by id. A Client holds one
// server-side session — and so one fabric handle lease — for its lifetime.
type Client struct {
	conn net.Conn

	// Egress is flush-combining (see flush): callers append frames to out
	// and one leader at a time writes everything appended so far.
	wmu      sync.Mutex // guards out, spare, flushing, werr
	out      []byte     // encoded frames not yet handed to a write
	spare    []byte     // an idle buffer the next leader swaps in for out
	flushing bool       // a leader is writing; appended frames ride its next write
	werr     error      // the failed write's error; nothing is written after it

	mu      sync.Mutex // guards pending, nextID, err
	pending map[uint64]*call
	nextID  uint64
	err     error // terminal error, set once the read loop exits

	readerDone chan struct{}
	maxFrame   int
}

// Dial connects to a queue server at addr with the default frame-size cap
// (DefaultMaxFrame, matching a default-configured server).
func Dial(addr string) (*Client, error) {
	return DialMaxFrame(addr, DefaultMaxFrame)
}

// DialMaxFrame is Dial with an explicit frame-size cap. Match it to the
// server's -max-frame: a client cap below the server's silently truncates
// nothing but kills the connection on the first oversized reply — after
// the value has already left the queue.
func DialMaxFrame(addr string, maxFrame int) (*Client, error) {
	if maxFrame < frameHeader {
		return nil, fmt.Errorf("server: max frame %d below header size", maxFrame)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, maxFrame), nil
}

// newClient runs the client protocol over an established connection.
func newClient(conn net.Conn, maxFrame int) *Client {
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]*call),
		readerDone: make(chan struct{}),
		maxFrame:   maxFrame,
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; the server releases the session's
// handle lease. In-flight calls fail with ErrClientClosed.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop matches reply frames to pending calls. A frame with id 0 is a
// connection-level failure (e.g. the handle registry was exhausted at
// accept); it poisons the whole client.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReader(c.conn)
	for {
		f, err := readFrame(br, c.maxFrame)
		if err == nil && f.id == 0 {
			err = fmt.Errorf("server refused session: %s", f.payload)
		}
		if err != nil {
			c.fail(err)
			return
		}
		var recvNs int64
		if f.kind&OpTraceFlag != 0 {
			// Traced replies carry a span block; stamp receive time here —
			// before pipeline dispatch — so the client-side close of the
			// span excludes the waiter's scheduling delay.
			recvNs = time.Now().UnixNano()
		}
		c.mu.Lock()
		call := c.pending[f.id]
		delete(c.pending, f.id)
		c.mu.Unlock()
		if call != nil {
			call.f = f
			call.recvNs = recvNs
			call.done <- call
		}
	}
}

// fail marks the client dead and completes every pending call with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if errors.Is(err, net.ErrClosed) {
			err = ErrClientClosed
		}
		c.err = err
	}
	stranded := c.pending
	c.pending = make(map[uint64]*call)
	err = c.err
	c.mu.Unlock()
	for _, call := range stranded {
		call.err = err
		call.done <- call
	}
}

// start registers a new call and appends its request frame (see
// startParts).
func (c *Client) start(op byte, payload []byte, done chan *call, tag any) (*call, error) {
	return c.startParts(op, done, tag, payload)
}

// register enters a new call completing on done into the pending table
// under a fresh id.
func (c *Client) register(done chan *call, tag any) (*call, uint64, error) {
	cl := getCall(done, tag)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		putCall(cl)
		return nil, 0, err
	}
	c.nextID++ // ids start at 1; id 0 is reserved for connection errors
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()
	return cl, id, nil
}

// startParts registers a new call and appends its request frame, built
// from the payload parts, to the pending egress buffer; nothing reaches
// the wire until a flush. The parts are copied, so a trace stamp or
// queue-id prefix can live in a caller's stack array.
func (c *Client) startParts(op byte, done chan *call, tag any, parts ...[]byte) (*call, error) {
	cl, id, err := c.register(done, tag)
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	c.out = appendFrame(c.out, id, op, parts...)
	c.wmu.Unlock()
	return cl, nil
}

// startBatch is startParts for batch-encoded requests: prefix (trace
// stamp and/or queue id, possibly empty) then the batch encoding of vals,
// encoded straight into the egress buffer by the server's batch encoder.
func (c *Client) startBatch(op byte, prefix []byte, vals [][]byte, done chan *call, tag any) (*call, error) {
	cl, id, err := c.register(done, tag)
	if err != nil {
		return nil, err
	}
	c.wmu.Lock()
	c.out = appendBatchFrame(c.out, id, op, prefix, vals)
	c.wmu.Unlock()
	return cl, nil
}

// yieldBelow is the pending-bytes mark under which a new leader yields
// before its first write, so callers readied by the same burst of replies
// can append their frames to it.
const yieldBelow = 4 << 10

// flush gets every frame appended so far onto the wire, sharing socket
// writes between concurrent callers. If a leader is writing, flush returns
// at once and the caller's frames ride the leader's next write. Otherwise
// the caller leads: while the buffer is small it yields once, so callers
// the read loop has just readied append first (they run one after another
// on this P and would never overlap a write otherwise), then it writes the
// buffer outside the lock until no frames arrived meanwhile. A failed
// write fails the client: every pending call — buffered, in the failed
// write or never to be written — completes with the write error.
func (c *Client) flush() error {
	c.wmu.Lock()
	if c.flushing || c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	c.flushing = true
	if len(c.out) < yieldBelow {
		c.wmu.Unlock()
		runtime.Gosched()
		c.wmu.Lock()
	}
	for len(c.out) > 0 {
		buf := c.out
		c.out, c.spare = c.spare[:0], nil
		c.wmu.Unlock()
		_, err := c.conn.Write(buf)
		c.wmu.Lock()
		if err != nil {
			c.werr, c.out = err, nil
			break
		}
		c.recycle(buf[:0])
	}
	c.flushing = false
	err := c.werr
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		c.conn.Close()
	}
	return err
}

// recycle takes back a written buffer (wmu held). An idle client keeps at
// most fwRetain bytes of egress buffers in total, so the warmer of the two
// buffers takes the next frames and the other is kept only while both fit.
func (c *Client) recycle(buf []byte) {
	if cap(buf) > fwRetain {
		buf = nil
	}
	if len(c.out) == 0 && cap(buf) > cap(c.out) {
		c.out, buf = buf, c.out[:0]
	}
	if cap(buf)+cap(c.out) <= fwRetain {
		c.spare = buf
	}
}

// roundTripParts issues one request synchronously from payload parts.
func (c *Client) roundTripParts(op byte, parts ...[]byte) (frame, error) {
	return c.await(c.startParts(op, nil, nil, parts...))
}

// await completes a synchronous call that start registered (or passes on
// its error): it flushes and waits for the reply. The completed call is
// recycled: its frame (whose payload the caller may keep — reply payloads
// are never pooled on the client) is copied out first.
func (c *Client) await(cl *call, err error) (frame, error) {
	if err != nil {
		return frame{}, err
	}
	_ = c.flush() // a failed write completes this call, like every pending one, with its error
	<-cl.done
	f, cerr := cl.f, cl.err
	putCall(cl)
	if cerr != nil {
		return frame{}, cerr
	}
	return f, nil
}

// statusErr maps non-OK reply statuses shared by all ops to errors.
func statusErr(f frame) error {
	switch f.kind {
	case StatusBusy:
		return ErrBusy
	case StatusClosed:
		return ErrClosedQueue
	case StatusErr:
		return fmt.Errorf("server: %s", f.payload)
	default:
		return fmt.Errorf("server: unexpected reply status 0x%02x", f.kind)
	}
}

// Enqueue appends v to the remote default queue (routed to the session's
// home shard, so one client's enqueues stay FIFO-ordered). Values that
// cannot fit a reply frame — including the batch reply's 8-byte overhead,
// so any enqueued value remains deliverable to batch dequeuers — are
// rejected locally: sending one would only get a server-side rejection
// anyway.
func (c *Client) Enqueue(v []byte) error { return c.enqueue(0, v) }

// errValueTooLarge rejects an enqueue value locally before it is sent:
// the server would only reject it anyway (see enqueueFits).
func errValueTooLarge(n, maxFrame int) error {
	return fmt.Errorf("%w: %d-byte value exceeds the %d-byte frame cap (less batch reply headroom)",
		ErrFrameTooLarge, n, maxFrame)
}

func (c *Client) enqueue(qid uint32, v []byte) error {
	if len(v)+frameHeader+batchReplyOverhead > c.maxFrame {
		return errValueTooLarge(len(v), c.maxFrame)
	}
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpEnqueueQ, q[:], v)
	} else {
		f, err = c.roundTripParts(OpEnqueue, v)
	}
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// EnqueueBatch appends all of vs to the remote fabric as one wire frame
// and one multi-op fabric batch: the frame's values are installed in a
// single leaf block of the session's home shard, so they stay contiguous
// in FIFO order and the tree walk is paid once for the whole batch.
// Enqueueing is all-or-nothing (ErrClosedQueue rejects the entire batch).
// The encoded batch must fit the frame cap; oversized batches are rejected
// locally — split them instead of raising the cap blindly, the server
// enforces its own limit.
func (c *Client) EnqueueBatch(vs [][]byte) error { return c.enqueueBatch(0, vs) }

func (c *Client) enqueueBatch(qid uint32, vs [][]byte) error {
	if len(vs) == 0 {
		return nil
	}
	prefix := 0
	if qid != 0 {
		prefix = queueIDLen // qualified frames spend 4 payload bytes on the queue id
	}
	if encodedBatchSize(vs)+frameHeader+prefix > c.maxFrame {
		return fmt.Errorf("%w: %d-byte batch exceeds the %d-byte frame cap",
			ErrFrameTooLarge, encodedBatchSize(vs), c.maxFrame)
	}
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.await(c.startBatch(OpEnqueueBatchQ, q[:], vs, nil, nil))
	} else {
		f, err = c.await(c.startBatch(OpEnqueueBatch, nil, vs, nil, nil))
	}
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// DequeueBatch removes up to n elements from the remote fabric with one
// wire round trip. An empty (nil) result with a nil error means the fabric
// certified empty. The server may return fewer than n values even when
// more exist, if shipping them would exceed the frame cap; it holds the
// overflow for this session's next dequeue, so simply call again.
func (c *Client) DequeueBatch(n int) ([][]byte, error) { return c.dequeueBatch(0, n) }

func (c *Client) dequeueBatch(qid uint32, n int) ([][]byte, error) {
	if n <= 0 {
		return nil, nil
	}
	var req [queueIDLen + 4]byte
	binary.BigEndian.PutUint32(req[queueIDLen:], uint32(min(n, MaxBatchOps)))
	var f frame
	var err error
	if qid != 0 {
		binary.BigEndian.PutUint32(req[:queueIDLen], qid)
		f, err = c.roundTripParts(OpDequeueBatchQ, req[:])
	} else {
		f, err = c.roundTripParts(OpDequeueBatch, req[queueIDLen:])
	}
	if err != nil {
		return nil, err
	}
	switch f.kind {
	case StatusOK:
		return decodeBatch(f.payload)
	case StatusEmpty:
		return nil, nil
	default:
		return nil, statusErr(f)
	}
}

// Dequeue removes an element from the remote default queue. ok is false
// when the fabric certified empty at the server.
func (c *Client) Dequeue() ([]byte, bool, error) { return c.dequeue(0) }

func (c *Client) dequeue(qid uint32) ([]byte, bool, error) {
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpDequeueQ, q[:])
	} else {
		f, err = c.roundTripParts(OpDequeue)
	}
	if err != nil {
		return nil, false, err
	}
	switch f.kind {
	case StatusOK:
		return f.payload, true, nil
	case StatusEmpty:
		return nil, false, nil
	default:
		return nil, false, statusErr(f)
	}
}

// Len returns the default queue's backlog estimate.
func (c *Client) Len() (int, error) { return c.length(0) }

func (c *Client) length(qid uint32) (int, error) {
	var f frame
	var err error
	if qid != 0 {
		var q [queueIDLen]byte
		binary.BigEndian.PutUint32(q[:], qid)
		f, err = c.roundTripParts(OpLenQ, q[:])
	} else {
		f, err = c.roundTripParts(OpLen)
	}
	if err != nil {
		return 0, err
	}
	if f.kind != StatusOK {
		return 0, statusErr(f)
	}
	if len(f.payload) != 8 {
		return 0, fmt.Errorf("%w: len payload %d bytes", ErrBadFrame, len(f.payload))
	}
	return int(binary.BigEndian.Uint64(f.payload)), nil
}

// Resize asks the server to resize the default queue's fabric to k shards
// and returns the shard count actually applied (the request is clamped to
// the server's shard bounds). The resize is live — pipelined operations
// keep flowing while the topology swaps — and conservation-preserving:
// retired shards' residual elements are migrated into the survivors.
func (c *Client) Resize(k int) (int, error) { return c.resize(0, k) }

func (c *Client) resize(qid uint32, k int) (int, error) {
	if k < 1 || k > 1<<31-1 {
		return 0, fmt.Errorf("server: shard count %d out of range", k)
	}
	var req [queueIDLen + 4]byte
	binary.BigEndian.PutUint32(req[queueIDLen:], uint32(k))
	var f frame
	var err error
	if qid != 0 {
		binary.BigEndian.PutUint32(req[:queueIDLen], qid)
		f, err = c.roundTripParts(OpResizeQ, req[:])
	} else {
		f, err = c.roundTripParts(OpResize, req[queueIDLen:])
	}
	if err != nil {
		return 0, err
	}
	if f.kind != StatusOK {
		return 0, statusErr(f)
	}
	if len(f.payload) != 4 {
		return 0, fmt.Errorf("%w: resize reply payload %d bytes, want 4", ErrBadFrame, len(f.payload))
	}
	return int(binary.BigEndian.Uint32(f.payload)), nil
}

// Stats returns the server's Snapshot as raw JSON (the same document the
// /statsz endpoint serves).
func (c *Client) Stats() ([]byte, error) {
	f, err := c.roundTripParts(OpStats, nil)
	if err != nil {
		return nil, err
	}
	if f.kind != StatusOK {
		return nil, statusErr(f)
	}
	return f.payload, nil
}

// Open binds this client to the named queue, creating the queue on first
// use (each named queue is its own server-side sharded fabric, so its
// FIFO and conservation guarantees are exactly the single-queue ones).
// The returned NamedQueue shares this client's connection and session;
// its operations ride the same pipeline as the client's default-queue
// operations. Opening the reserved name "default" binds queue 0.
func (c *Client) Open(name string) (*NamedQueue, error) {
	if len(name) == 0 || len(name) > MaxQueueName {
		return nil, fmt.Errorf("server: queue name must be 1..%d bytes (got %d)", MaxQueueName, len(name))
	}
	f, err := c.roundTripParts(OpOpen, []byte(name))
	if err != nil {
		return nil, err
	}
	if f.kind != StatusOK {
		return nil, statusErr(f)
	}
	if len(f.payload) != queueIDLen {
		return nil, fmt.Errorf("%w: open reply payload %d bytes, want %d", ErrBadFrame, len(f.payload), queueIDLen)
	}
	return &NamedQueue{c: c, id: binary.BigEndian.Uint32(f.payload), name: name}, nil
}

// Delete removes the named queue from the server: the name disappears at
// once (a subsequent Open creates a fresh queue), its fabric is closed,
// and values still inside are dropped — deletion is explicit data loss,
// exactly like closing a local fabric that still holds elements. The
// default queue cannot be deleted.
func (c *Client) Delete(name string) error {
	f, err := c.roundTripParts(OpDelete, []byte(name))
	if err != nil {
		return err
	}
	if f.kind != StatusOK {
		return statusErr(f)
	}
	return nil
}

// NamedQueue is a client-side binding to one named queue, obtained with
// Client.Open. It shares the parent client's connection: methods are safe
// for concurrent use and pipeline with other requests on the same
// session. All enqueues through one NamedQueue stay FIFO-ordered among
// themselves (one session leases one handle per queue, and a handle's
// enqueues all route to its home shard).
type NamedQueue struct {
	c    *Client
	id   uint32
	name string
}

// ID returns the server-assigned queue id. Ids are never reused within a
// server's lifetime: after a Delete, a stale id fails with an "unknown
// queue" error instead of touching a new tenant's data.
func (q *NamedQueue) ID() uint32 { return q.id }

// Name returns the queue's name.
func (q *NamedQueue) Name() string { return q.name }

// Enqueue appends v to the named queue.
func (q *NamedQueue) Enqueue(v []byte) error { return q.c.enqueue(q.id, v) }

// EnqueueBatch appends all of vs to the named queue as one wire frame and
// one multi-op fabric batch (all-or-nothing, like Client.EnqueueBatch).
func (q *NamedQueue) EnqueueBatch(vs [][]byte) error { return q.c.enqueueBatch(q.id, vs) }

// Dequeue removes an element from the named queue. ok is false when its
// fabric certified empty at the server.
func (q *NamedQueue) Dequeue() ([]byte, bool, error) { return q.c.dequeue(q.id) }

// DequeueBatch removes up to n elements from the named queue with one
// wire round trip, with the same frame-cap overflow contract as
// Client.DequeueBatch.
func (q *NamedQueue) DequeueBatch(n int) ([][]byte, error) { return q.c.dequeueBatch(q.id, n) }

// Len returns the named queue's backlog estimate.
func (q *NamedQueue) Len() (int, error) { return q.c.length(q.id) }

// Resize asks the server to resize this queue's fabric to k shards and
// returns the applied count (see Client.Resize for semantics).
func (q *NamedQueue) Resize(k int) (int, error) { return q.c.resize(q.id, k) }

// Delete removes this queue from the server (see Client.Delete).
func (q *NamedQueue) Delete() error { return q.c.Delete(q.name) }
