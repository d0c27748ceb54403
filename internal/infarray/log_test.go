package infarray

import (
	"sync"
	"sync/atomic"
	"testing"
)

// levelStart is the first logical index of level l.
func levelStart(l int) int64 { return levelLen(l) - levelLen(0) }

func TestLogLevelBoundaries(t *testing.T) {
	// Every boundary of the directory maps the last index of level l-1 and
	// the first of level l (63/64, 191/192, 447/448, ...) to the right
	// slots; through level 10 the indices also round-trip values written
	// one at a time, undisturbed by later writes.
	const levels = 10
	var lg Log[int64]
	n := levelStart(levels) + 1
	for i := int64(0); i < n; i++ {
		lg.Store(i, i*3)
	}
	for l := 1; l < maxLevels; l++ {
		b := levelStart(l)
		if level, offset := locate(b - 1); level != l-1 || offset != levelLen(l-1)-1 {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", b-1, level, offset, l-1, levelLen(l-1)-1)
		}
		if level, offset := locate(b); level != l || offset != 0 {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, 0)", b, level, offset, l)
		}
		if l > levels {
			continue
		}
		for _, i := range []int64{b - 1, b} {
			if got := lg.Get(i); got != i*3 {
				t.Fatalf("Get(%d) = %d, want %d", i, got, i*3)
			}
		}
	}
	if got := lg.Get(0); got != 0 {
		t.Fatalf("Get(0) = %d after %d writes", got, n)
	}
	if lg.levels[levels+1].Load() != nil {
		t.Fatalf("level %d allocated before any index reached it", levels+1)
	}
}

func TestLogStoreSpansLevels(t *testing.T) {
	// One Store may start mid-level and run through whole levels; each value
	// must land at its own index. Runs: within level 0, across 63/64, and
	// from 150 through levels 1-3 into level 4 (ends past 960).
	var lg Log[int]
	runs := []struct{ at, n int64 }{{0, 10}, {10, 60}, {70, 80}, {150, 900}}
	for _, r := range runs {
		vs := make([]int, r.n)
		for k := range vs {
			vs[k] = int(r.at) + k + 1
		}
		lg.Store(r.at, vs...)
	}
	for i := int64(0); i < 1050; i++ {
		if got := lg.Get(i); got != int(i)+1 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i+1)
		}
	}
}

// TestLogPublishedReads runs under -race in CI: the writer publishes each
// index through an atomic counter only after storing it, while a reader
// reads every published index (and re-reads the boundary indices) as the
// writer crosses levels, alternating single and multi-value Stores.
func TestLogPublishedReads(t *testing.T) {
	type pair [2]int64 // two words, so a torn read shows
	want := func(i int64) pair { return pair{i, ^i} }
	n := levelStart(8) + 5
	var (
		lg        Log[pair]
		published atomic.Int64
		wg        sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < n; {
			m := min(1+i%37, n-i)
			vs := make([]pair, m)
			for k := range vs {
				vs[k] = want(i + int64(k))
			}
			lg.Store(i, vs...)
			i += m
			published.Store(i)
		}
	}()
	for next := int64(0); next < n; {
		upto := published.Load()
		for ; next < upto; next++ {
			if got := lg.Get(next); got != want(next) {
				t.Fatalf("Get(%d) = %v, want %v", next, got, want(next))
			}
		}
		for l := 1; levelStart(l) < upto; l++ {
			b := levelStart(l)
			if got := lg.Get(b - 1); got != want(b-1) {
				t.Fatalf("re-read Get(%d) = %v", b-1, got)
			}
		}
	}
	wg.Wait()
}
