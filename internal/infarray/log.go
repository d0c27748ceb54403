package infarray

import "sync/atomic"

// Log is an unbounded single-writer array of values, laid out in the same
// doubling levels as Array. Where Array holds atomic pointers that many
// processes may CAS, Log holds the values themselves in plain memory: one
// writer fills indices in order and readers only read indices the writer
// has already published by other means. The zero value is an empty log.
//
// Memory-model contract: Log itself orders nothing but its level directory.
// A reader may Get index i only after an atomic load that synchronizes with
// an atomic store the writer made after its Store covering i (for the
// ordering tree, the publication of the leaf block that counts i).
type Log[T any] struct {
	levels [maxLevels]atomic.Pointer[[]T]
}

// Store writes vs to indices i, i+1, ..., i+len(vs)-1, allocating each level
// on first touch. Only the log's single writer may call Store, and it never
// rewrites an index a reader may already see.
func (l *Log[T]) Store(i int64, vs ...T) {
	for len(vs) > 0 {
		level, offset := locate(i)
		lp := l.levels[level].Load()
		if lp == nil {
			fresh := make([]T, levelLen(level))
			lp = &fresh
			l.levels[level].Store(lp)
		}
		n := copy((*lp)[offset:], vs)
		vs = vs[n:]
		i += int64(n)
	}
}

// Get returns the value at index i, which must have been published to the
// caller under the contract above.
func (l *Log[T]) Get(i int64) T {
	level, offset := locate(i)
	return (*l.levels[level].Load())[offset]
}
