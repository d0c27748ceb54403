package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro"
)

// span is one timed interval at a layer boundary. Spans of one request
// share a trace id; a child names its parent. Times are nanoseconds since
// the run began.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out ids and owns the run's clock origin. Each goroutine
// records into its own spanBuf, so recording takes no lock.
type tracer struct {
	t0   time.Time
	ids  atomic.Uint64
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span log, bounded so that a long run cannot
// grow it without limit; spans past the bound are counted, not kept.
type spanBuf struct {
	tr      *tracer
	spans   []span
	dropped int64
}

// buffer returns a new per-goroutine buffer; call it before the goroutine
// starts.
func (t *tracer) buffer(capacity int) *spanBuf {
	b := &spanBuf{tr: t, spans: make([]span, 0, capacity)}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records a span and returns its id (0 if the buffer is full).
func (b *spanBuf) add(trace, parent uint64, name string, start, end int64) uint64 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	id := b.tr.ids.Add(1)
	if trace == 0 {
		trace = id
	}
	b.spans = append(b.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// call records a root span for one public call.
func (b *spanBuf) call(name string, start, end time.Time) {
	b.add(0, 0, name, b.tr.ns(start), b.tr.ns(end))
}

// remote records a traced wire call: the client's round trip as the root
// span, and below it the server's read-to-reply window split into its
// wait, fabric and reply stages. The stage durations are the server's own
// measurements; the client cannot see the server's clock, so the window
// is placed in the middle of the round trip and the stages back to back
// from its start (read-side slack last).
func (b *spanBuf) remote(name string, start, end time.Time, st repro.RequestTrace) {
	s, e := b.tr.ns(start), b.tr.ns(end)
	root := b.add(0, 0, name, s, e)
	if root == 0 || !st.ServerSampled {
		return
	}
	srv := int64(st.ServerMs * 1e6)
	ws := s + max(0, (e-s-srv)/2)
	win := b.add(root, root, "server.window", ws, ws+srv)
	at := ws
	for _, stage := range []struct {
		name string
		ms   float64
	}{{"server.wait", st.WaitMs}, {"server.fabric", st.FabricMs}, {"server.reply", st.ReplyMs}} {
		d := int64(stage.ms * 1e6)
		b.add(root, win, stage.name, at, at+d)
		at += d
	}
}

// all returns every recorded span and the number dropped.
func (t *tracer) all() ([]span, int64) {
	var out []span
	var dropped int64
	for _, b := range t.bufs {
		out = append(out, b.spans...)
		dropped += b.dropped
	}
	return out, dropped
}

// selfTimes returns, per span name, each span's self time in nanoseconds:
// its duration minus the durations of its direct children.
func selfTimes(spans []span) map[string][]float64 {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID]))
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
