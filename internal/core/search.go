package core

// This file implements the read path of a dequeue: locating the dequeue's
// block in the root (IndexDequeue, task T2), deciding emptiness and the rank
// of the enqueue to return (FindResponse, task T3), and tracing that enqueue
// down to the leaf that stores it (GetEnqueue, task T4). Lines 65-118 of
// Figure 4 in the paper. Tree nodes are heap indices (node.go): parent v>>1,
// children 2v/2v+1, sibling v^1.

// indexDequeue returns (b', i') such that the i-th dequeue of
// D(v.blocks[b]) is the (i')-th dequeue of D(root.blocks[b']).
//
// Preconditions: v.blocks[b] is non-nil, has been propagated to the root,
// and contains at least i dequeues.
func (h *Handle[T]) indexDequeue(v int, b, i int64) (int64, int64) {
	for v != rootIdx {
		dir := childDir(v)
		parent := v >> 1
		blk := h.readBlock(v, b)
		// super may undershoot the true superblock index by one (Lemma 12);
		// checking whether block b is within the candidate's range resolves
		// the ambiguity (line 73).
		sup := h.readSuper(blk)
		supBlk := h.readBlock(parent, sup)
		if b > supBlk.end(dir) {
			sup++
			supBlk = h.readBlock(parent, sup)
		}
		prevSup := h.readBlock(parent, sup-1)

		// Dequeues contributed by earlier subblocks of the superblock that
		// live in v (line 76): blocks prevSup.end(dir)+1 .. b-1.
		i += h.readBlock(v, b-1).sumDeq - h.readBlock(v, prevSup.end(dir)).sumDeq
		if dir == right {
			// All of the superblock's subblocks from the left sibling also
			// precede our dequeue in D(superblock) by equation (3.1)
			// (line 78; the paper's pseudocode has a typo reading these
			// sums from v rather than from the left sibling).
			sib := v ^ 1
			i += h.readBlock(sib, supBlk.endLeft).sumDeq -
				h.readBlock(sib, prevSup.endLeft).sumDeq
		}
		v, b = parent, sup
	}
	return b, i
}

// findResponse computes the response of the i-th dequeue in
// D(root.blocks[b]) (lines 83-96). The boolean result is false for a null
// dequeue (queue empty at its linearization point).
func (h *Handle[T]) findResponse(b, i int64) (T, bool) {
	blkB := h.readBlock(rootIdx, b)
	prevB := h.readBlock(rootIdx, b-1)
	numEnq := blkB.numEnqueues(prevB)
	if prevB.size+numEnq < i {
		// The queue is empty when this dequeue takes effect: within a block
		// all enqueues are linearized before all dequeues, so the i-th
		// dequeue sees prevB.size+numEnq elements at most.
		var zero T
		return zero, false
	}
	// e is the rank (among all enqueues in L) of the enqueue whose value we
	// must return: prevB.sumEnq - prevB.size counts the non-null dequeues in
	// blocks 1..b-1 (line 89).
	e := i + prevB.sumEnq - prevB.size
	be := h.searchRootForEnqueue(b, e)
	ie := e - h.readBlock(rootIdx, be-1).sumEnq
	return h.getEnqueue(rootIdx, be, ie), true
}

// searchRootForEnqueue finds the minimum index be <= b with
// root.blocks[be].sumEnq >= e (line 91). A doubling search from b bounds the
// range in O(log(b-be)) probes — which Lemma 20 shows is O(log(q_e + q_d)) —
// before the binary search.
func (h *Handle[T]) searchRootForEnqueue(b, e int64) int64 {
	lo := int64(0)
	if !h.queue.plainRootSearch {
		// Walk lo through b-1, b-2, b-4, ... until blocks[lo] has fewer
		// than e enqueues. blocks[0] has zero enqueues and e >= 1, so
		// lo == 0 works as a final fallback without a read.
		lo = b - 1
		delta := int64(1)
		for lo > 0 && h.readBlock(rootIdx, lo).sumEnq >= e {
			delta <<= 1
			lo = b - delta
			if lo < 0 {
				lo = 0
			}
		}
	}
	// Invariant: sumEnq(lo) < e <= sumEnq(hi); find the boundary.
	hi := b
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if h.readBlock(rootIdx, mid).sumEnq >= e {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// getEnqueue returns the argument of the i-th enqueue in E(v.blocks[b])
// (lines 97-118).
//
// Preconditions: i >= 1, v.blocks[b] is non-nil and contains at least i
// enqueues.
func (h *Handle[T]) getEnqueue(v int, b, i int64) T {
	// target is the enqueue's rank among all enqueues of child; after the
	// last descent, child is the leaf and target indexes its value log.
	var target int64
	for !h.queue.isLeaf(v) {
		lc, rc := 2*v, 2*v+1
		blkB := h.readBlock(v, b)
		prevB := h.readBlock(v, b-1)
		// Number of enqueues of E(blkB) contributed by the left child: the
		// left child's subblocks span prevB.endLeft+1 .. blkB.endLeft.
		sumLeft := h.readBlock(lc, blkB.endLeft).sumEnq
		prevLeft := h.readBlock(lc, prevB.endLeft).sumEnq

		var (
			child        int
			prevChild    int64 // enqueues in child.blocks[1..range start-1]
			loIdx, hiIdx int64 // subblock index range in child
		)
		if i <= sumLeft-prevLeft {
			child = lc
			prevChild = prevLeft
			loIdx, hiIdx = prevB.endLeft+1, blkB.endLeft
		} else {
			i -= sumLeft - prevLeft
			child = rc
			prevChild = h.readBlock(rc, prevB.endRight).sumEnq
			loIdx, hiIdx = prevB.endRight+1, blkB.endRight
		}

		// Binary search the direct subblocks for the minimum b' with
		// child.blocks[b'].sumEnq >= i + prevChild (line 114). The range has
		// at most c <= p blocks (Lemma 21), giving O(log c) probes.
		target = i + prevChild
		lo, hi := loIdx-1, hiIdx
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if h.readBlock(child, mid).sumEnq >= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		bp := hi
		i -= h.readBlock(child, bp-1).sumEnq - prevChild
		v, b = child, bp
	}
	return h.readValue(v, target)
}
