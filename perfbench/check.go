package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Every value the benchmark enqueues carries a key: the run nonce, the
// producing worker and that worker's sequence number. The nonce is
// repeated in the value's last 8 bytes, so a truncated, padded or
// corrupted value cannot pass as a valid key.
//
//	[0:8] nonce  [8:12] worker  [12:20] seq  ...  [len-8:len] nonce
//
// putKey stamps v, at least 28 bytes long, with a key.
func putKey(v []byte, nonce uint64, worker uint32, seq uint64) {
	binary.LittleEndian.PutUint64(v[0:8], nonce)
	binary.LittleEndian.PutUint32(v[8:12], worker)
	binary.LittleEndian.PutUint64(v[12:20], seq)
	binary.LittleEndian.PutUint64(v[len(v)-8:], nonce)
}

// ledger accounts for every value of one round. Each worker may enqueue up
// to its quota of values, numbered 0..quota-1; consumers mark each value
// they take in a per-worker bitset, and settle compares the marks with
// what was produced. The bitsets are allocated up front, so checking adds
// no allocation and no retained heap to the measured phase.
type ledger struct {
	nonce    uint64
	valueLen int
	quota    []uint64          // per worker: keys it may issue
	produced []uint64          // per worker: enqueue attempts, seq 0..produced-1
	failed   [][]uint64        // per worker: seqs whose enqueue returned an error
	seen     [][]atomic.Uint64 // per worker: bit seq set once the value is taken
	dup      atomic.Int64

	consumers []*consumer
}

func newLedger(nonce uint64, valueLen int, quotas []int) *ledger {
	l := &ledger{
		nonce:    nonce,
		valueLen: valueLen,
		quota:    make([]uint64, len(quotas)),
		produced: make([]uint64, len(quotas)),
		failed:   make([][]uint64, len(quotas)),
		seen:     make([][]atomic.Uint64, len(quotas)),
	}
	for w, q := range quotas {
		l.quota[w] = uint64(q)
		l.seen[w] = make([]atomic.Uint64, (q+63)/64)
	}
	return l
}

// producer hands out one worker's keys; it is owned by one goroutine.
type producer struct {
	l      *ledger
	worker uint32
	seq    uint64
}

func (l *ledger) producer(worker int) *producer { return &producer{l: l, worker: uint32(worker)} }

// next stamps v with the worker's next key; it returns false once the
// worker's quota is used up.
func (p *producer) next(v []byte) bool {
	if p.seq >= p.l.quota[p.worker] {
		return false
	}
	putKey(v, p.l.nonce, p.worker, p.seq)
	p.seq++
	p.l.produced[p.worker] = p.seq
	return true
}

// failedLast records that the enqueue of the last key returned an error:
// the value may or may not be in the queue, so it is neither lost if
// missing nor foreign if found. The error itself counts as a failure.
func (p *producer) failedLast() {
	p.l.failed[p.worker] = append(p.l.failed[p.worker], p.seq-1)
}

// consumer is one caller's view of the values it dequeued. It is owned by
// a single goroutine until settle runs.
type consumer struct {
	l       *ledger
	lastSeq []int64 // per producer: highest seq this consumer took, -1 if none
	foreign int64
	order   int64
}

// newConsumer registers a consumer; call it before the consuming goroutine
// starts.
func (l *ledger) newConsumer() *consumer {
	c := &consumer{l: l, lastSeq: make([]int64, len(l.produced))}
	for i := range c.lastSeq {
		c.lastSeq[i] = -1
	}
	l.consumers = append(l.consumers, c)
	return c
}

// take records one dequeued value. A value whose key is malformed, from
// another run, or never issued is foreign; a value taken before, by any
// consumer, is a duplicate; a value older than one this consumer already
// took from the same producer breaks per-producer FIFO.
func (c *consumer) take(v []byte) {
	if len(v) != c.l.valueLen {
		c.foreign++
		return
	}
	nonce := binary.LittleEndian.Uint64(v[0:8])
	worker := binary.LittleEndian.Uint32(v[8:12])
	seq := binary.LittleEndian.Uint64(v[12:20])
	if nonce != c.l.nonce || binary.LittleEndian.Uint64(v[len(v)-8:]) != nonce ||
		int(worker) >= len(c.lastSeq) || seq >= c.l.quota[worker] {
		c.foreign++
		return
	}
	word, bit := &c.l.seen[worker][seq/64], uint64(1)<<(seq%64)
	for {
		old := word.Load()
		if old&bit != 0 {
			c.l.dup.Add(1) // a duplicate is not also counted as reordered
			return
		}
		if word.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if int64(seq) < c.lastSeq[worker] {
		c.order++
	} else {
		c.lastSeq[worker] = int64(seq)
	}
}

// verdict is the outcome of settling a ledger.
type verdict struct {
	Produced   int64 `json:"produced"`
	Consumed   int64 `json:"consumed"`
	Lost       int64 `json:"lost"`
	Duplicated int64 `json:"duplicated"`
	Foreign    int64 `json:"foreign"`
	Reordered  int64 `json:"reordered"`
}

func (v verdict) failures() int64 { return v.Lost + v.Duplicated + v.Foreign + v.Reordered }

func (v *verdict) add(o verdict) {
	v.Produced += o.Produced
	v.Consumed += o.Consumed
	v.Lost += o.Lost
	v.Duplicated += o.Duplicated
	v.Foreign += o.Foreign
	v.Reordered += o.Reordered
}

func (v verdict) String() string {
	return fmt.Sprintf("produced=%d consumed=%d lost=%d duplicated=%d foreign=%d reordered=%d",
		v.Produced, v.Consumed, v.Lost, v.Duplicated, v.Foreign, v.Reordered)
}

// settle checks exact conservation once every producer and consumer has
// finished and the queue has been drained: each produced value was taken
// exactly once, and nothing else was taken.
func (l *ledger) settle() verdict {
	v := verdict{Duplicated: l.dup.Load()}
	for w, n := range l.produced {
		failed := make(map[uint64]bool, len(l.failed[w]))
		for _, s := range l.failed[w] {
			failed[s] = true
		}
		for i := range l.seen[w] {
			word := l.seen[w][i].Load()
			lo := uint64(i) * 64
			if lo+64 > n { // bits at or past n are keys never issued
				var issued uint64
				if n > lo {
					issued = 1<<(n-lo) - 1
				}
				v.Foreign += int64(bits.OnesCount64(word &^ issued))
				word &= issued
			}
			v.Consumed += int64(bits.OnesCount64(word))
		}
		for s := range failed {
			if l.seen[w][s/64].Load()&(1<<(s%64)) != 0 {
				v.Consumed-- // landed despite the error: not a produced value
			}
		}
		v.Produced += int64(n) - int64(len(failed))
	}
	for _, c := range l.consumers {
		v.Foreign += c.foreign
		v.Reordered += c.order
	}
	v.Lost = v.Produced - v.Consumed
	return v
}
