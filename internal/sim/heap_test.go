package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapTotalOrder drives the event queue with a large randomized
// interleaving of pushes and pops and checks that events drain in exact
// (time, seq) total order — including FIFO order for same-cycle ties, which
// the machine model relies on for bit-for-bit reproducibility. Delays reach
// past the time wheel, so the overflow heap orders some of them.
func TestHeapTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()

	type stamp struct {
		at  Time
		seq uint64
	}
	var fired []stamp

	// Schedule in clustered batches so many events share a cycle (ties) and
	// interleave pops so the heap is exercised at many sizes, not just one
	// build-then-drain pass.
	pending := 0
	for round := 0; round < 200; round++ {
		batch := rng.Intn(32) + 1
		for i := 0; i < batch; i++ {
			// Cluster times into few buckets to force same-cycle ties,
			// and send one in eight past the wheel into the overflow heap.
			at := e.Now() + Time(rng.Intn(8))
			if rng.Intn(8) == 0 {
				at += wheelSize - 4
			}
			var ev stamp
			e.At(at, func() {
				ev.at = e.Now()
				fired = append(fired, ev)
			})
			// Engine assigns seq internally; mirror it (seq is incremented
			// once per At call, starting from 1).
			ev.seq = e.seq
			ev.at = at
			pending++
		}
		drain := rng.Intn(pending + 1)
		for i := 0; i < drain; i++ {
			if !e.Step() {
				t.Fatalf("round %d: Step returned false with %d pending", round, pending)
			}
			pending--
		}
	}
	for e.Step() {
	}

	if len(fired) == 0 {
		t.Fatal("no events fired")
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		a, b := fired[i], fired[j]
		return a.at < b.at || (a.at == b.at && a.seq < b.seq)
	}) {
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("order violation at %d: (%d,%d) fired before (%d,%d)",
					i, a.at, a.seq, b.at, b.seq)
			}
		}
	}
}

// TestHeapSameCycleFIFO checks the tie-break path directly: a burst of
// events all scheduled for the same cycle must execute in insertion order.
func TestHeapSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	const n = 257 // not a power of the heap arity: exercises ragged last rows
	var got []int
	for i := 0; i < n; i++ {
		i := i
		e.At(10, func() { got = append(got, i) })
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("fired %d of %d events", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle FIFO violated at position %d: got event %d", i, v)
		}
	}
}

// slabCap is the queue's total slot capacity: the wheel's node slab plus
// the overflow heap.
func slabCap(e *Engine) int { return cap(e.q.nodes) + cap(e.q.over) }

// TestHeapSlabReuse checks that the queue's backing arrays (the wheel's
// node slab and the overflow heap) are reused: after reaching steady state,
// schedule/step cycles must not grow the slab.
func TestHeapSlabReuse(t *testing.T) {
	e := NewEngine()
	var fire func()
	rng := rand.New(rand.NewSource(7))
	fire = func() {
		d := Time(rng.Intn(16) + 1)
		if rng.Intn(16) == 0 {
			d += 2 * wheelSize // overflow heap
		}
		e.After(d, fire)
	}
	const depth = 512
	for i := 0; i < depth; i++ {
		e.At(Time(rng.Intn(16)), fire)
	}
	// Warm up to high-water mark.
	for i := 0; i < 10_000; i++ {
		e.Step()
	}
	capBefore := slabCap(e)
	for i := 0; i < 100_000; i++ {
		e.Step()
	}
	if got := slabCap(e); got != capBefore {
		t.Fatalf("slab grew in steady state: cap %d -> %d", capBefore, got)
	}
	if e.MaxPending() < depth {
		t.Fatalf("MaxPending %d below steady-state depth %d", e.MaxPending(), depth)
	}
}

// TestHeapScheduleStepAllocFree asserts the serial scheduling hot path is
// allocation-free at steady state, through the wheel buckets and the
// overflow heap alike: the rank machinery added for sharded clusters must
// cost serial engines nothing (events carry a nil rank and the (time, seq)
// path is unchanged).
func TestHeapScheduleStepAllocFree(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(3))
	var fire func()
	fire = func() {
		d := Time(rng.Intn(16) + 1)
		if rng.Intn(8) == 0 {
			d += wheelSize
		}
		e.After(d, fire)
	}
	for i := 0; i < 256; i++ {
		e.At(Time(rng.Intn(16)), fire)
	}
	for i := 0; i < 10_000; i++ { // reach slab high water
		e.Step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	})
	if allocs > 0 {
		t.Fatalf("serial schedule/step allocates %.1f per 100 steps at steady state", allocs)
	}
}

// TestHeapPoppedSlotCleared checks that popping zeroes every vacated slot,
// in the wheel's node slab and in the overflow heap, so completed closures are
// not pinned by the slab.
func TestHeapPoppedSlotCleared(t *testing.T) {
	e := NewEngine()
	for _, at := range []Time{1, 1, 2, 3 * wheelSize, 3*wheelSize + 1, 5 * wheelSize} {
		e.At(at, func() {})
	}
	for e.Step() {
	}
	for i, nd := range e.q.nodes[:cap(e.q.nodes)] {
		if nd.fn != nil {
			t.Fatalf("wheel node %d still holds a closure after drain", i)
		}
	}
	for i, ev := range e.q.over[:cap(e.q.over)] {
		if ev.fn != nil {
			t.Fatalf("overflow slot %d still holds a closure after drain", i)
		}
	}
}
