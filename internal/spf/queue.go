package spf

import (
	"slices"

	"dualtopo/internal/graph"
)

// Priority queues backing the SPF core. Both hand nodes back in the tree's
// canonical order — increasing (distance, node ID) — so the Dijkstra loops
// append what they pop straight to Tree.Order:
//
//   - bucketQueue is Dial's monotone bucket queue, the default for the
//     paper's bounded OSPF-style weight range: O(1) push, and a pop that
//     drains one whole distance class at a time, sorted by node ID.
//   - heap4 is an indexed 4-ary min-heap with decrease-key, keyed on
//     (distance, node ID): the fallback when the weight range is too wide
//     for buckets, and the engine behind TreeUpdate, whose seed labels span
//     the whole distance range rather than one arc weight.
//
// TreeUpdate runs heap4 over labels that are all upper bounds on the new
// distances, where a label that is still too high is queued or upstream of
// a queued one: unqueued nodes satisfy the triangle inequality among
// themselves (the old tree did, and the seeds absorbed the lowered arcs). A
// shorter path from the minimum-key node would pass a queued node with a
// smaller label, so the minimum is final; what its relaxation pushes is
// larger (weights >= 1), so pop keys never decrease. A final label is set by
// a seed or by a pop of a strictly smaller key: all nodes of one distance
// are queued before the first of them pops and leave in node-ID order, so
// the popped run is canonical. Untouched nodes kept their distances, hence
// their relative place in the old Tree.Order, and merging the two sorted
// runs by (distance, node ID) is the canonical order of the whole tree.
//
// Distances and the ECMP DAG are pure functions of (graph, weights,
// destination), so with the order canonical too the tree produced is
// bitwise-identical whichever queue ran — a property the equivalence tests
// assert directly.

// maxBucketWeight is the largest maximum arc weight for which Tree uses the
// bucket queue. Beyond it the empty-bucket scan (bounded by max distance ≈
// diameter × wmax) could dominate, so Tree falls back to the indexed heap.
// The paper's weight range is [1, 30]; typical OSPF deployments stay far
// below this limit.
const maxBucketWeight = 1024

// sortCutoff is the longest distance class popClass sorts by insertion
// in place. Under spread-out weights a class is a handful of nodes and a
// library call costs more than the sort; under unit weights it is hundreds,
// where insertion sort is quadratic and slices.Sort takes over.
const sortCutoff = 16

// bucketQueue is a monotone (Dial) bucket queue over integer distances.
// Entries are lazy: a node may be queued at several distances, and popClass
// drops the ones a shorter path has overtaken. Correctness of the ring
// indexing relies on monotonicity: every queued distance lies in
// [cur, cur+maxW], so a ring of power-of-two width > maxW never aliases two
// live distances to one bucket.
type bucketQueue struct {
	buckets [][]graph.NodeID
	mask    int32 // len(buckets)-1, buckets length is a power of two
	cur     int32 // distance currently being drained
	count   int   // live entries across all buckets
}

// reset prepares the queue for a run whose arc weights are at most width-1,
// growing the ring to the next power of two ≥ width. All buckets are empty
// between runs (popClass empties the bucket it returns).
func (q *bucketQueue) reset(width int) {
	size := 1
	for size < width {
		size <<= 1
	}
	if size > len(q.buckets) {
		q.buckets = append(q.buckets, make([][]graph.NodeID, size-len(q.buckets))...)
	}
	q.mask = int32(size) - 1
	q.cur = 0
	q.count = 0
}

func (q *bucketQueue) push(u graph.NodeID, d int32) {
	i := d & q.mask
	q.buckets[i] = append(q.buckets[i], u)
	q.count++
}

// popClass removes the minimum queued distance d and returns the nodes whose
// settled distance (dist) it is, in ascending node ID. Monotonicity makes the
// bucket q.cur indexes hold exactly the entries queued at q.cur (smaller
// ones were drained when cur passed them, larger ones live in other
// buckets), each node at most once (a push needs a strict improvement), so
// the survivors of the staleness filter are the whole distance class. The
// returned slice is the bucket's own storage: it stays intact while the
// caller relaxes the class, because arc weights are in [1, ring width) and
// so no push can land in the bucket being drained.
func (q *bucketQueue) popClass(dist []int32) ([]graph.NodeID, int32) {
	i := q.cur & q.mask
	for len(q.buckets[i]) == 0 {
		q.cur++
		i = q.cur & q.mask
	}
	b := q.buckets[i]
	q.buckets[i] = b[:0]
	q.count -= len(b)
	k := 0
	for _, u := range b {
		b[k] = u
		if dist[u] == q.cur {
			k++
		}
	}
	b = b[:k]
	if k > sortCutoff {
		slices.Sort(b)
		return b, q.cur
	}
	for i := 1; i < k; i++ {
		u := b[i]
		j := i
		for ; j > 0 && b[j-1] > u; j-- {
			b[j] = b[j-1]
		}
		b[j] = u
	}
	return b, q.cur
}

// heap4 is an indexed 4-ary min-heap with decrease-key over (distance, node
// ID) pairs packed into one uint64 key — distance in the high half, so key
// order is the canonical tree order and a comparison is one compare. Each
// node appears at most once, so the heap never exceeds the node count and
// pops need no staleness filtering. 4-ary keeps the sift depth half of a
// binary heap's with all children in one cache line.
type heap4 struct {
	keys []uint64
	pos  []int32 // node -> heap index + 1; 0 when absent
}

func heapKey(u graph.NodeID, d int32) uint64 { return uint64(d)<<32 | uint64(u) }

// ensure sizes the position index for n nodes.
func (h *heap4) ensure(n int) {
	if len(h.pos) < n {
		h.pos = make([]int32, n)
	}
}

// reset empties the heap. The position index is already clean when the
// previous run drained the heap; the loop covers abandoned runs.
func (h *heap4) reset() {
	for _, k := range h.keys {
		h.pos[uint32(k)] = 0
	}
	h.keys = h.keys[:0]
}

func (h *heap4) len() int { return len(h.keys) }

// push inserts u at distance d, or decreases u's key when it is already
// queued with a larger one.
func (h *heap4) push(u graph.NodeID, d int32) {
	k := heapKey(u, d)
	if i := h.pos[u]; i != 0 {
		if k < h.keys[i-1] {
			h.keys[i-1] = k
			h.up(int(i) - 1)
		}
		return
	}
	h.keys = append(h.keys, k)
	h.pos[u] = int32(len(h.keys))
	h.up(len(h.keys) - 1)
}

func (h *heap4) pop() (graph.NodeID, int32) {
	k := h.keys[0]
	h.pos[uint32(k)] = 0
	last := len(h.keys) - 1
	if last > 0 {
		h.keys[0] = h.keys[last]
		h.pos[uint32(h.keys[0])] = 1
	}
	h.keys = h.keys[:last]
	if last > 1 {
		h.down(0)
	}
	return graph.NodeID(uint32(k)), int32(k >> 32)
}

func (h *heap4) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heap4) down(i int) {
	n := len(h.keys)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := i
		end := first + 4
		if end > n {
			end = n
		}
		for c := first; c < end; c++ {
			if h.keys[c] < h.keys[smallest] {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *heap4) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[uint32(h.keys[i])] = int32(i + 1)
	h.pos[uint32(h.keys[j])] = int32(j + 1)
}
