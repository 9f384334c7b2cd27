package sim

import "math/bits"

// event is a scheduled closure. seq breaks ties between events scheduled for
// the same cycle so execution order is insertion order (deterministic).
// Events are stored by value inside the engine's queue: scheduling one
// performs no per-event heap allocation once the queue has reached its
// high-water mark (the closure the caller passes is the only allocation on
// the scheduling path, and callers that bind their callbacks once make
// none).
//
// rank is nil on a serial engine. On a sharded engine (one that belongs to a
// Cluster) every event carries a scheduling-lineage rank that reconstructs
// the serial (time, seq) total order without a global sequence counter; see
// shard.go for the ordering argument.
type event struct {
	at   Time
	seq  uint64
	rank *rankNode
	fn   func()
}

// before reports whether e orders ahead of o in the engine's total order:
// (time, seq) on a serial engine, (time, rank) on a sharded one. An engine
// never mixes ranked and unranked events, so the nil checks only select the
// mode. Only the overflow heap compares events.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.rank == nil {
		return e.seq < o.seq
	}
	return rankLess(e.rank, o.rank)
}

// wheelSize is the number of one-cycle buckets in the time wheel: events
// less than wheelSize cycles ahead of the clock sit in the bucket indexed by
// at & wheelMask, later ones in the overflow heap. The machine model's
// reschedule horizon (bus phases, engine occupancies, network latency) is
// almost entirely inside it.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// heapArity is the fan-out of the overflow heap. A 4-ary heap halves the
// tree depth of a binary heap, trading a few extra sibling comparisons
// (which hit the same cache line, since events are stored by value) for
// fewer level-to-level moves.
const heapArity = 4

// node is one wheel slot: an event and the index of the next node in its
// bucket (0 ends the list; nodes[0] is never used, so the zero queue is
// empty).
type node struct {
	event
	next int32
}

// bucket is the FIFO of events due at one cycle, a list threaded through
// the queue's node slab (0 when empty).
type bucket struct {
	head, tail int32
}

// queue is the engine's event queue: a time wheel of wheelSize per-cycle
// FIFO buckets covering [now, now+wheelSize), an occupancy bitmap over the
// buckets, and a heapArity-ary min-heap holding every event at or past
// now+wheelSize. All buckets share one node slab with a free list, so the
// slab grows to the wheel's high-water depth once and is then reused.
//
// # Why appends are already in order
//
// Every bucket holds events of exactly one time: the wheel only ever holds
// times in [now, now+wheelSize). take moves an overflow event into its
// bucket as soon as the clock passes at-wheelSize, before any event at the
// new time runs; a direct At only reaches a bucket once its time is inside
// the window, that is, strictly later. So an overflow event enters its
// bucket before any direct insert for the same cycle, and the heap hands
// them over in (time, seq) order. Direct inserts then arrive in At-call
// order, which is seq order. On a serial engine a plain append therefore
// keeps every bucket in (time, seq) order, and scheduling makes no
// comparison at all.
//
// On a sharded engine local At calls also mint ranks in increasing order,
// but window drains and fence bodies replay At calls under ranks reserved
// earlier (the coordinator's override context). An event whose rank does
// not order after its bucket's tail is insertion-sorted into the bucket
// with rankLess; tailInserts counts those.
type queue struct {
	wheel [wheelSize]bucket
	occ   [wheelSize / 64]uint64
	nodes []node
	free  int32
	over  []event
	n     int
	// tailInserts counts appends that had to be sorted in ahead of the
	// bucket tail (sharded replays only; always zero on a serial engine).
	tailInserts uint64
}

// push enqueues ev on a queue whose clock reads now.
func (q *queue) push(ev event, now Time) {
	q.n++
	if ev.at-now >= wheelSize {
		q.pushOverflow(ev)
		return
	}
	q.appendBucket(ev)
}

// alloc returns a free node index, growing the slab when none is free.
func (q *queue) alloc() int32 {
	if k := q.free; k != 0 {
		q.free = q.nodes[k].next
		return k
	}
	if len(q.nodes) == 0 {
		q.nodes = append(q.nodes, node{}) // index 0 is the list terminator
	}
	q.nodes = append(q.nodes, node{})
	return int32(len(q.nodes) - 1)
}

// appendBucket adds ev at the tail of its bucket, or, for a ranked event
// that orders before the tail, at its rank position.
func (q *queue) appendBucket(ev event) {
	i := int(ev.at & wheelMask)
	b := &q.wheel[i]
	k := q.alloc()
	q.nodes[k] = node{event: ev}
	switch {
	case b.head == 0:
		b.head, b.tail = k, k
		q.occ[i>>6] |= 1 << uint(i&63)
	case ev.rank != nil && rankLess(ev.rank, q.nodes[b.tail].rank):
		q.tailInserts++
		prev, cur := int32(0), b.head
		for !rankLess(ev.rank, q.nodes[cur].rank) {
			prev, cur = cur, q.nodes[cur].next
		}
		q.nodes[k].next = cur
		if prev == 0 {
			b.head = k
		} else {
			q.nodes[prev].next = k
		}
	default:
		q.nodes[b.tail].next = k
		b.tail = k
	}
}

// first returns the index of the first occupied bucket at or circularly
// after from, or -1 if the wheel is empty.
func (q *queue) first(from int) int {
	w := from >> 6
	if m := q.occ[w] >> uint(from&63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for k := 1; k <= len(q.occ); k++ {
		j := (w + k) & (len(q.occ) - 1)
		if m := q.occ[j]; m != 0 {
			return j<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// peek returns the time of the earliest pending event on a queue whose
// clock reads now. Wheel events are all earlier than overflow events.
func (q *queue) peek(now Time) (Time, bool) {
	if i := q.first(int(now & wheelMask)); i >= 0 {
		return now + Time((i-int(now&wheelMask))&wheelMask), true
	}
	if len(q.over) > 0 {
		return q.over[0].at, true
	}
	return 0, false
}

// take removes and returns the earliest event, whose time t peek reported.
// Overflow events that t brings inside the wheel's window move into their
// buckets first. The freed node is zeroed so the queue does not pin the
// popped closure alive.
func (q *queue) take(t Time) event {
	for len(q.over) > 0 && q.over[0].at-t < wheelSize {
		q.appendBucket(q.popOverflow())
	}
	i := int(t & wheelMask)
	b := &q.wheel[i]
	k := b.head
	nd := &q.nodes[k]
	ev := nd.event
	b.head = nd.next
	if b.head == 0 {
		b.tail = 0
		q.occ[i>>6] &^= 1 << uint(i&63)
	}
	*nd = node{next: q.free}
	q.free = k
	q.n--
	return ev
}

// pushOverflow adds ev to the overflow heap and sifts it up.
func (q *queue) pushOverflow(ev event) {
	h := append(q.over, ev)
	q.over = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popOverflow removes and returns the overflow heap's minimum. The vacated
// slot at the slab tail is zeroed.
func (q *queue) popOverflow() event {
	h := q.over
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	q.over = h
	if n > 0 {
		// Sift last down from the root.
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}
