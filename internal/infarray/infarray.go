// Package infarray provides a lock-free, unbounded, append-friendly array.
//
// The paper's ordering-tree nodes each own an "infinite array of blocks"
// (Section 3.3, Figure 3). This package realizes that abstraction: a logical
// array of pointers, all initially nil, supporting O(1) random access and a
// single-slot compare-and-swap from nil. Storage is a fixed 64-entry level
// directory where level l holds base<<l contiguous slots, so capacity grows
// exponentially while lookups stay O(1) (one bits.Len64 plus two indexed
// loads). Levels are allocated on first touch and installed with CAS, so the
// structure as a whole remains lock-free and all published slots are stable
// for the lifetime of the array.
//
// Log uses the same level layout for a single writer's values stored
// inline; the ordering tree keeps each leaf's enqueued values there so its
// blocks stay pointer-free.
package infarray

import (
	"math/bits"
	"sync/atomic"
)

// defaultBaseBits sizes level 0 at 1<<defaultBaseBits slots. Level l then has
// 1<<(defaultBaseBits+l) slots; with 48 usable levels the logical capacity
// exceeds 2^60 slots, which is unbounded for any practical execution.
const defaultBaseBits = 6

// maxLevels bounds the level directory. It is sized so that index arithmetic
// can never overflow int64.
const maxLevels = 58 - defaultBaseBits

// Array is a lock-free unbounded array of pointers to T. The zero value is
// not usable; construct with New.
//
// All slots are logically nil until a Store or CompareAndSwap publishes a
// value. Published values are immutable from the array's point of view: a
// slot transitions nil -> non-nil at most once when accessed only through
// CompareAndSwap, matching the paper's write-once blocks arrays.
type Array[T any] struct {
	levels [maxLevels]atomic.Pointer[[]atomic.Pointer[T]]
}

// New returns an empty array with its first level pre-allocated so that the
// hot low indices never pay an allocation CAS.
func New[T any]() *Array[T] {
	a := &Array[T]{}
	lvl := make([]atomic.Pointer[T], levelLen(0))
	a.levels[0].Store(&lvl)
	return a
}

// locate maps a logical index to (level, offset). The mapping follows the
// classic jagged-array scheme: shifting the index by the base size makes the
// high bit select the level and the remaining bits the offset, so level l
// covers logical indices [base·(2^l − 1), base·(2^(l+1) − 1)).
func locate(i int64) (level int, offset int64) {
	pos := uint64(i) + (1 << defaultBaseBits)
	hi := bits.Len64(pos) - 1
	return hi - defaultBaseBits, int64(pos) - (1 << hi)
}

// levelLen is the number of slots in level l.
func levelLen(l int) int64 { return int64(1) << (defaultBaseBits + l) }

// slot returns the atomic cell for index i, allocating the containing level
// if needed. Allocation uses CAS so concurrent callers agree on one level
// slice; the loser's allocation is discarded.
func (a *Array[T]) slot(i int64) *atomic.Pointer[T] {
	level, offset := locate(i)
	lp := a.levels[level].Load()
	if lp == nil {
		fresh := make([]atomic.Pointer[T], levelLen(level))
		if a.levels[level].CompareAndSwap(nil, &fresh) {
			lp = &fresh
		} else {
			lp = a.levels[level].Load()
		}
	}
	return &(*lp)[offset]
}

// Get returns the value at index i, or nil if no value has been published
// there. i must be non-negative.
func (a *Array[T]) Get(i int64) *T {
	// Read through the level directory without allocating: an unallocated
	// level means every slot in it is still logically nil.
	level, offset := locate(i)
	lp := a.levels[level].Load()
	if lp == nil {
		return nil
	}
	return (*lp)[offset].Load()
}

// CompareAndSwap atomically installs val at index i if the slot currently
// holds old (typically nil). It reports whether the swap happened.
func (a *Array[T]) CompareAndSwap(i int64, old, val *T) bool {
	return a.slot(i).CompareAndSwap(old, val)
}

// Store unconditionally publishes val at index i. It exists for
// single-writer slots (a process's own leaf, per Append in the paper) where
// no CAS is needed.
func (a *Array[T]) Store(i int64, val *T) {
	a.slot(i).Store(val)
}
