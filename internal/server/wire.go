// Package server turns the sharded queue fabric into a network service.
//
// The paper's central trick — amortizing contention by propagating batches
// of operations through the tree instead of one at a time — is applied here
// one layer up: a per-connection batcher coalesces pipelined client
// requests into a single pass over the leased fabric handle and a single
// socket flush, so a round-trip's fixed costs (syscalls, scheduling) are
// paid once per batch rather than once per operation.
//
// Four pieces make up the service:
//
//   - A length-prefixed binary wire protocol (this file) carrying
//     Enqueue/Dequeue/Len/Stats/Open/Delete/Resize requests and their replies,
//     each tagged with a client-chosen id so requests can be pipelined
//     and replies matched out of band. Data opcodes come in two flavors:
//     unqualified (targeting the default queue 0, wire-compatible with
//     pre-namespace clients) and queue-qualified (the payload leads with
//     a uint32 queue id from OPEN).
//   - A queue namespace (namespace.go): named queues inside one server,
//     created on first OPEN — each a full sharded fabric of its own, so
//     naming multiplies queues without weakening any per-queue guarantee
//     — deleted explicitly or torn down when idle and empty.
//   - A session manager (session.go): every accepted connection leases
//     fabric handles from the dynamic registries per (connection, queue)
//     — the default queue's at accept, named queues' on first use, all
//     released at teardown — and is reaped when idle, so a dead client
//     cannot pin handle slots forever.
//   - A per-connection batcher (server.go) with a bounded in-flight
//     window: requests beyond the window are answered with an immediate
//     BUSY reply instead of being buffered without bound, and once the
//     reply lane saturates the reader simply stops draining the socket,
//     converting overload into TCP backpressure.
//
// Client (client.go) and open-loop load generator (loadgen.go) speak the
// same protocol; Serve/Dial are re-exported at the repository root.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format: every message, in both directions, is one frame
//
//	uint32 length   big-endian, length of the rest of the frame (id + kind + payload)
//	uint64 id       client-chosen request id, echoed verbatim in the reply
//	uint8  kind     request opcode or response status
//	[]byte payload  kind-dependent
//
// Requests and responses draw kinds from disjoint ranges so a stray frame
// read in the wrong direction fails loudly instead of being misparsed.
const (
	// Request opcodes (client to server).
	OpEnqueue byte = 0x01 // payload: the value bytes
	OpDequeue byte = 0x02 // no payload
	OpLen     byte = 0x03 // no payload
	OpStats   byte = 0x04 // no payload

	// Batch opcodes: one frame carries a whole multi-op batch, which the
	// server hands to the fabric as a single multi-op leaf block.
	OpEnqueueBatch byte = 0x05 // payload: count-prefixed values (see encodeBatch)
	OpDequeueBatch byte = 0x06 // payload: uint32 max element count

	// Namespace opcodes: named queues inside one server process. OpOpen
	// creates the named queue on first use (each named queue is its own
	// sharded fabric) and replies with its uint32 queue id; OpDelete
	// removes it and closes its fabric. The default queue — the fabric the
	// server was started with — has the reserved id 0 and the reserved
	// name "default"; it cannot be deleted.
	OpOpen   byte = 0x07 // payload: queue name (1..MaxQueueName bytes); reply: uint32 queue id
	OpDelete byte = 0x08 // payload: queue name

	// OpResize asks the server to resize the target queue's fabric to k
	// shards (clamped to the server's shard bounds); the reply carries the
	// shard count actually applied. The resize is live: operations keep
	// flowing while the topology swaps and retired shards' residues are
	// migrated, so this is an administrative hint, not a fence.
	OpResize byte = 0x09 // payload: uint32 shard count; reply: uint32 applied count

	// OpQueueFlag marks the queue-qualified variant of a data opcode: the
	// payload begins with the uint32 queue id returned by OpOpen, followed
	// by the base opcode's payload. Unqualified opcodes keep their pre-
	// namespace meaning — they target the default queue 0 — so clients
	// that predate the namespace interoperate unchanged.
	OpQueueFlag byte = 0x10

	// Queue-qualified data opcodes (base opcode | OpQueueFlag).
	OpEnqueueQ      = OpEnqueue | OpQueueFlag      // 0x11: uint32 queue id + value bytes
	OpDequeueQ      = OpDequeue | OpQueueFlag      // 0x12: uint32 queue id
	OpLenQ          = OpLen | OpQueueFlag          // 0x13: uint32 queue id
	OpEnqueueBatchQ = OpEnqueueBatch | OpQueueFlag // 0x15: uint32 queue id + count-prefixed values
	OpDequeueBatchQ = OpDequeueBatch | OpQueueFlag // 0x16: uint32 queue id + uint32 max element count
	OpResizeQ       = OpResize | OpQueueFlag       // 0x19: uint32 queue id + uint32 shard count

	// OpTraceFlag marks the traced variant of a data opcode: the client asks
	// the server to record per-stage timestamps for this one frame and ship
	// them back in the reply. A traced request's payload begins with the
	// client's own send timestamp (int64 unix nanoseconds, the client's
	// clock), before any queue-id prefix; the flag composes with OpQueueFlag
	// (trace is stripped first, so ENQ|TRACE|QUEUE = 0x31 decodes as a
	// qualified traced enqueue). Only the four data opcodes that move values
	// are traceable — Enqueue, Dequeue, EnqueueBatch, DequeueBatch and their
	// qualified variants; any other flag-bearing byte stays unknown and is
	// rejected per request. Old clients never set the bit, old servers
	// reject it with a request-scoped ERR, so the flag is wire-compatible
	// in both directions.
	//
	// A successful reply to a traced request carries the same flag on its
	// status byte (StatusOK|OpTraceFlag = 0xA0, StatusEmpty|OpTraceFlag =
	// 0xA1) and prefixes the normal reply payload with a span block: five
	// int64 unix-nano stamps on the server's clock — socket read, batcher
	// admit, fabric call start, fabric call end, reply write (see
	// putSpanBlock). BUSY, error, and closed replies stay plain, as does
	// every reply from a server running with observability off — the client
	// treats a plain status to a traced request as "server declined to
	// sample" and still completes the call normally.
	OpTraceFlag byte = 0x20

	// Response statuses (server to client).
	StatusOK     byte = 0x80 // payload: dequeue value / 8-byte length / stats JSON
	StatusEmpty  byte = 0x81 // dequeue: fabric certified empty
	StatusBusy   byte = 0x82 // backpressure: in-flight window full, retry later
	StatusClosed byte = 0x83 // enqueue: queue closed
	StatusErr    byte = 0x84 // payload: error message
)

// Frame geometry.
const (
	frameHeader = 8 + 1 // id + kind, after the length prefix

	// DefaultMaxFrame bounds a frame's encoded size (and so an enqueued
	// value's size). It exists so one malformed or hostile length prefix
	// cannot make the peer allocate gigabytes.
	DefaultMaxFrame = 1 << 20

	// MaxBatchOps caps the element count of one OpDequeueBatch request.
	// Enqueue batches are implicitly capped by the frame size; a dequeue
	// batch request is 4 bytes however large its count, so without this cap
	// a hostile frame could demand a multi-gigabyte reply reservation.
	MaxBatchOps = 1 << 16

	// MaxQueueName caps a queue name's length in bytes. Names travel in
	// OpOpen/OpDelete payloads and in /statsz JSON; the cap keeps a hostile
	// client from parking megabytes in the namespace table.
	MaxQueueName = 255

	// queueIDLen is the size of the queue-id prefix a qualified opcode
	// carries (see OpQueueFlag).
	queueIDLen = 4

	// traceStampLen is the size of the client send-timestamp prefix a
	// traced request carries (see OpTraceFlag).
	traceStampLen = 8

	// traceBlockLen is the size of the span block prefixed to a traced
	// reply's payload: five int64 server-clock stamps (read, admit, fabric
	// start, fabric end, reply write).
	traceBlockLen = 5 * 8

	// batchReplyOverhead is the batch encoding's cost for shipping a lone
	// value: the count word plus the value's length word. Every value
	// admitted into the fabric must satisfy len <= maxFrame - frameHeader -
	// batchReplyOverhead (enforced at enqueue on both sides), so any value
	// a dequeue pulls out can always be shipped in a batch reply — without
	// this invariant a value within 8 bytes of the cap would fit its single
	// OpEnqueue frame but no DEQ_BATCH reply, and batch consumers would be
	// told "empty" forever while it sat in the session stash.
	batchReplyOverhead = 4 + 4
)

// Protocol-level errors.
var (
	ErrFrameTooLarge = errors.New("server: frame exceeds maximum size")
	ErrBadFrame      = errors.New("server: malformed frame")
)

// frame is one decoded wire message. at is the unix-nano timestamp the
// read loop stamped when it pulled the frame off the socket (0 when
// observability is off); the batch worker turns it into the frame's
// in-server latency sample at reply time.
type frame struct {
	id      uint64
	kind    byte
	payload []byte
	at      int64
}

// appendFrame appends one encoded frame — length prefix, id, kind, then
// the payload parts in order — to dst and returns the extended slice. It
// is the single frame encoder behind both sides' write paths: the parts
// are copied, so callers may reuse their buffers (stack prefix arrays,
// value scratch) the moment it returns.
func appendFrame(dst []byte, id uint64, kind byte, parts ...[]byte) []byte {
	n := frameHeader
	for _, p := range parts {
		n += len(p)
	}
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = kind
	dst = append(dst, hdr[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// appendBatchFrame appends one batch-encoded frame to dst: an optional
// prefix (a span block on replies; a trace stamp and/or queue id on
// requests), the count word, then each value length-prefixed. It is the
// batch encoder behind both sides' write paths, so a batch payload is
// never materialized on its own.
func appendBatchFrame(dst []byte, id uint64, kind byte, prefix []byte, vals [][]byte) []byte {
	n := frameHeader + len(prefix) + encodedBatchSize(vals)
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = kind
	dst = append(dst, hdr[:]...)
	dst = append(dst, prefix...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(vals)))
	for _, v := range vals {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// AppendWireFrame is appendFrame for callers outside the package that
// speak the raw wire format — the benchmark harness's zero-allocation
// drivers preencode request bursts with it.
func AppendWireFrame(dst []byte, id uint64, kind byte, parts ...[]byte) []byte {
	return appendFrame(dst, id, kind, parts...)
}

// writeFrame appends one frame to w. The caller owns flushing: the batcher
// writes a whole batch of replies and flushes once.
func writeFrame(w *bufio.Writer, id uint64, kind byte, payload []byte) error {
	var hdr [4 + frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(frameHeader+len(payload)))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameWriter is the server's reply egress: replies append into one
// per-session scratch buffer and the batch worker pushes the whole
// window's bytes with a single sized socket write, so frames-per-syscall
// scales with the drained window. With pooled false it emulates the
// pre-pooling egress for the T18 before-arm: per-reply payloads are
// materialized with fresh allocations (encodeBatch, putSpanBlock) exactly
// as the old encode helpers did, and the scratch is released after every
// flush instead of being retained.
type frameWriter struct {
	w      io.Writer
	buf    []byte
	pooled bool
}

const (
	// fwSpill bounds the scratch mid-window: a window whose replies
	// outgrow it is written out in more than one syscall rather than
	// buffering without bound (batch dequeue replies can reach the frame
	// cap each).
	fwSpill = 32 << 10
	// fwRetain caps the capacity kept across flushes; a rare giant window
	// must not pin its scratch forever.
	fwRetain = 64 << 10
)

func newFrameWriter(w io.Writer, pooled bool) *frameWriter {
	return &frameWriter{w: w, pooled: pooled}
}

// spill writes the buffered bytes out early when the scratch has outgrown
// its bound. A failed spill poisons the connection exactly like a failed
// flush — the caller's reply is reported undelivered.
func (fw *frameWriter) spill() error {
	if len(fw.buf) < fwSpill {
		return nil
	}
	return fw.flush()
}

// frame appends one reply frame built from parts (see appendFrame).
func (fw *frameWriter) frame(id uint64, kind byte, parts ...[]byte) error {
	if err := fw.spill(); err != nil {
		return err
	}
	fw.buf = appendFrame(fw.buf, id, kind, parts...)
	return nil
}

// batchFrame appends one batch-reply frame: an optional span-block prefix,
// the count word, then each value length-prefixed — encoded directly into
// the scratch, no intermediate payload buffer. In the unpooled arm it
// materializes the payload through the allocating helpers instead,
// reproducing the pre-pooling cost model.
func (fw *frameWriter) batchFrame(id uint64, kind byte, span []byte, vals [][]byte) error {
	if !fw.pooled {
		payload := encodeBatch(vals)
		if span != nil {
			payload = append(append(make([]byte, 0, len(span)+len(payload)), span...), payload...)
		}
		return fw.frame(id, kind, payload)
	}
	if err := fw.spill(); err != nil {
		return err
	}
	fw.buf = appendBatchFrame(fw.buf, id, kind, span, vals)
	return nil
}

// flush writes the buffered reply bytes in one socket write and resets the
// scratch, retaining up to fwRetain of capacity (none in the unpooled
// arm).
func (fw *frameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	switch {
	case !fw.pooled:
		fw.buf = nil
	case cap(fw.buf) > fwRetain:
		fw.buf = make([]byte, 0, fwRetain)
	default:
		fw.buf = fw.buf[:0]
	}
	return err
}

// readFrame reads one frame from r. The header lands in a stack array —
// only the payload is heap-allocated, so payload-free frames (acks, polls)
// cost nothing. The payload is freshly allocated and escapes to the
// caller; the server's pooled ingress is readFrameBuf.
func readFrame(r *bufio.Reader, maxFrame int) (frame, error) {
	return readFrameAlloc(r, maxFrame, false)
}

// readFrameBuf is the server ingress: the payload is decoded into a pooled
// buffer, which the batch worker recycles (putBuf(f.payload)) once the
// frame's window is processed — by then every enqueue payload has been
// copied out at admit time and every reply byte copied into the egress
// scratch, so the body is dead. With pooled false each payload is a fresh
// allocation and recycling is a no-op, reproducing the pre-pooling read
// path.
func readFrameBuf(r *bufio.Reader, maxFrame int, pooled bool) (frame, error) {
	return readFrameAlloc(r, maxFrame, pooled)
}

func readFrameAlloc(r *bufio.Reader, maxFrame int, pooled bool) (frame, error) {
	// The header is parsed in place from the bufio window (Peek/Discard)
	// rather than copied into a local array: a local passed to io.ReadFull
	// escapes through the io.Reader interface, costing one heap allocation
	// per frame — on the hot path, for 13 bytes.
	hdr, err := r.Peek(4)
	if err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < frameHeader {
		return frame{}, fmt.Errorf("%w: length %d below header size", ErrBadFrame, n)
	}
	if int(n) > maxFrame {
		return frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	r.Discard(4)
	if hdr, err = r.Peek(frameHeader); err != nil {
		return frame{}, err
	}
	f := frame{
		id:   binary.BigEndian.Uint64(hdr[:8]),
		kind: hdr[8],
	}
	r.Discard(frameHeader)
	if m := int(n) - frameHeader; m > 0 {
		// The payload buffer is heap storage either way, so io.ReadFull's
		// escape costs nothing extra here.
		if pooled {
			f.payload = getBuf(m)
		} else {
			f.payload = make([]byte, m)
		}
		if _, err := io.ReadFull(r, f.payload); err != nil {
			if pooled {
				putBuf(f.payload)
			}
			return frame{}, err
		}
	}
	return f, nil
}

// decoded is a request frame with its queue addressing and trace context
// resolved: the base opcode (trace and queue flags stripped), the target
// queue id (0 for unqualified opcodes), and the payload with any trace and
// queue-id prefixes removed.
type decoded struct {
	op     byte   // base opcode, or the BUSY status marker injected by the read loop
	qid    uint32 // target queue id; 0 is the default queue
	rest   []byte // payload after the trace-stamp and queue-id prefixes, if any
	bad    bool   // a frame too short to carry its declared prefixes
	traced bool   // the client set OpTraceFlag on a traceable data opcode
	sendNs int64  // the traced frame's client send stamp (client clock)
}

// decodeOp resolves a frame's trace context and queue addressing. The
// trace flag is stripped first (consuming the 8-byte client send stamp),
// then the queue flag (consuming the uint32 queue-id prefix); unqualified
// opcodes target queue 0. Only the defined traced and qualified opcodes
// are rewritten — any other flag-bearing byte (0x14, 0x17, 0x23, ...)
// passes through untouched so it is rejected as unknown rather than
// silently aliasing a defined op. Status markers (>= 0x80) also pass
// through untouched.
func decodeOp(f frame) decoded {
	d := decoded{op: f.kind, rest: f.payload}
	if d.op&OpTraceFlag != 0 && d.op < StatusOK {
		switch d.op &^ OpTraceFlag {
		case OpEnqueue, OpDequeue, OpEnqueueBatch, OpDequeueBatch,
			OpEnqueueQ, OpDequeueQ, OpEnqueueBatchQ, OpDequeueBatchQ:
		default:
			return d // unknown opcode; rejected by the executor
		}
		if len(d.rest) < traceStampLen {
			d.bad = true
			return d
		}
		d.op &^= OpTraceFlag
		d.traced = true
		d.sendNs = int64(binary.BigEndian.Uint64(d.rest[:traceStampLen]))
		d.rest = d.rest[traceStampLen:]
	}
	switch d.op {
	case OpEnqueueQ, OpDequeueQ, OpLenQ, OpEnqueueBatchQ, OpDequeueBatchQ, OpResizeQ:
	default:
		return d
	}
	d.op &^= OpQueueFlag
	if len(d.rest) < queueIDLen {
		d.bad = true
		return d
	}
	d.qid = binary.BigEndian.Uint32(d.rest[:queueIDLen])
	d.rest = d.rest[queueIDLen:]
	return d
}

// qualify prepends a queue id to an op payload, producing the payload of
// the queue-qualified variant of the opcode.
func qualify(qid uint32, payload []byte) []byte {
	buf := make([]byte, queueIDLen+len(payload))
	binary.BigEndian.PutUint32(buf[:queueIDLen], qid)
	copy(buf[queueIDLen:], payload)
	return buf
}

// tracePrefix prepends a client send stamp to an op payload, producing the
// payload of the traced variant of the opcode. For a frame that is both
// traced and queue-qualified, compose as tracePrefix(ns, qualify(qid, p))
// — the trace stamp leads, matching decodeOp's stripping order.
func tracePrefix(sendNs int64, payload []byte) []byte {
	buf := make([]byte, traceStampLen+len(payload))
	binary.BigEndian.PutUint64(buf[:traceStampLen], uint64(sendNs))
	copy(buf[traceStampLen:], payload)
	return buf
}

// putSpanBlock prepends the traced reply's span block — five int64
// server-clock unix-nano stamps — to a reply payload.
func putSpanBlock(read, admit, fabricStart, fabricEnd, replyWrite int64, payload []byte) []byte {
	buf := make([]byte, traceBlockLen+len(payload))
	for i, ns := range [5]int64{read, admit, fabricStart, fabricEnd, replyWrite} {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(ns))
	}
	copy(buf[traceBlockLen:], payload)
	return buf
}

// splitTracedReply undoes putSpanBlock on the client side: given a reply
// frame, it strips the trace flag and span block if present, returning the
// normalized frame, the five server stamps, and whether the server
// actually sampled the request. A plain reply (server tracing off, or a
// BUSY/error path) passes through with sampled=false; a flagged reply too
// short for its span block is malformed.
func splitTracedReply(f frame) (frame, [5]int64, bool, error) {
	var stamps [5]int64
	if f.kind < StatusOK || f.kind&OpTraceFlag == 0 {
		return f, stamps, false, nil
	}
	if len(f.payload) < traceBlockLen {
		return f, stamps, false, fmt.Errorf("%w: traced reply %d bytes below span block", ErrBadFrame, len(f.payload))
	}
	for i := range stamps {
		stamps[i] = int64(binary.BigEndian.Uint64(f.payload[i*8:]))
	}
	f.kind &^= OpTraceFlag
	f.payload = f.payload[traceBlockLen:]
	if len(f.payload) == 0 {
		f.payload = nil
	}
	return f, stamps, true, nil
}

// Batch payload layout (OpEnqueueBatch requests and OpDequeueBatch StatusOK
// replies): uint32 count, then count x (uint32 length, value bytes), all
// big-endian. The layout is capped by the frame size like any other
// payload, so neither side ever allocates beyond its configured maxFrame.

// encodedBatchSize returns the payload size of a count-prefixed batch.
func encodedBatchSize(vals [][]byte) int {
	n := 4
	for _, v := range vals {
		n += 4 + len(v)
	}
	return n
}

// encodeBatch renders vals as a count-prefixed batch payload. The value
// bytes are copied, so callers may reuse their buffers immediately.
func encodeBatch(vals [][]byte) []byte {
	buf := make([]byte, 4, encodedBatchSize(vals))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(vals)))
	var lenBuf [4]byte
	for _, v := range vals {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(v)))
		buf = append(buf, lenBuf[:]...)
		buf = append(buf, v...)
	}
	return buf
}

// decodeBatch parses a count-prefixed batch payload. The returned values
// alias payload — callers that outlive the payload's buffer (the server's
// pooled ingress) must use decodeBatchPooled instead; the client decodes
// replies it consumes before the next read, where aliasing is safe.
func decodeBatch(payload []byte) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: batch payload %d bytes", ErrBadFrame, len(payload))
	}
	count := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	// Every entry needs at least its 4-byte length, so a count beyond
	// len(payload)/4 is malformed however the rest parses.
	if count > uint32(len(payload)/4) {
		return nil, fmt.Errorf("%w: batch count %d exceeds payload", ErrBadFrame, count)
	}
	vals := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("%w: truncated batch entry %d", ErrBadFrame, i)
		}
		n := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: batch entry %d length %d exceeds payload", ErrBadFrame, i, n)
		}
		vals = append(vals, payload[:n:n])
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(payload))
	}
	return vals, nil
}

// decodeBatchPooled parses a count-prefixed batch payload, copying every
// value into its own pooled buffer and appending them to dst. Unlike
// decodeBatch, nothing in the result aliases payload — the frame body can
// be recycled the moment the window is processed, and each value's storage
// recycles independently when its dequeue reply ships. On a parse error
// the copies already made are returned to the pool and the original dst is
// handed back unchanged.
func decodeBatchPooled(payload []byte, dst [][]byte) ([][]byte, error) {
	base := len(dst)
	fail := func(err error) ([][]byte, error) {
		for _, v := range dst[base:] {
			putBuf(v)
		}
		return dst[:base], err
	}
	if len(payload) < 4 {
		return fail(fmt.Errorf("%w: batch payload %d bytes", ErrBadFrame, len(payload)))
	}
	count := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if count > uint32(len(payload)/4) {
		return fail(fmt.Errorf("%w: batch count %d exceeds payload", ErrBadFrame, count))
	}
	if need := base + int(count); cap(dst) < need {
		grown := make([][]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return fail(fmt.Errorf("%w: truncated batch entry %d", ErrBadFrame, i))
		}
		n := binary.BigEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(n) > uint64(len(payload)) {
			return fail(fmt.Errorf("%w: batch entry %d length %d exceeds payload", ErrBadFrame, i, n))
		}
		dst = append(dst, copyBuf(payload[:n]))
		payload = payload[n:]
	}
	if len(payload) != 0 {
		return fail(fmt.Errorf("%w: %d trailing bytes after batch", ErrBadFrame, len(payload)))
	}
	return dst, nil
}
