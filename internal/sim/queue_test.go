package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential tests of the time-wheel queue: randomized schedules are
// checked against a reference sort of every scheduled event by (at, seq),
// with the queue's structural invariants checked as the run goes.

type qstamp struct {
	at  Time
	seq uint64
}

func stampLess(a, b qstamp) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// checkQueue verifies the wheel's invariants on a serial engine: every
// bucket holds one time inside [now, now+wheelSize) in strictly increasing
// seq order, the occupancy bitmap matches the buckets, the overflow heap
// holds only times at or past the window, and the count is exact.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	q := &e.q
	n := len(q.over)
	for _, ev := range q.over {
		if ev.at-e.now < wheelSize {
			t.Fatalf("now=%d: overflow event at %d is inside the wheel window", e.now, ev.at)
		}
	}
	for i := range q.wheel {
		b := q.wheel[i]
		occupied := q.occ[i>>6]&(1<<uint(i&63)) != 0
		if occupied != (b.head != 0) {
			t.Fatalf("now=%d: bucket %d occupancy bit %v, head %d", e.now, i, occupied, b.head)
		}
		var prev *event
		for k := b.head; k != 0; k = q.nodes[k].next {
			ev := &q.nodes[k].event
			n++
			if int(ev.at&wheelMask) != i || ev.at < e.now || ev.at-e.now >= wheelSize {
				t.Fatalf("now=%d: event at %d in bucket %d", e.now, ev.at, i)
			}
			if prev != nil && (ev.at != prev.at || ev.seq <= prev.seq) {
				t.Fatalf("now=%d: bucket %d out of order: (%d,%d) after (%d,%d)",
					e.now, i, ev.at, ev.seq, prev.at, prev.seq)
			}
			if q.nodes[k].next == 0 && k != b.tail {
				t.Fatalf("bucket %d tail %d, list ends at %d", i, b.tail, k)
			}
			prev = ev
		}
	}
	if n != q.n || n != e.Pending() {
		t.Fatalf("now=%d: counted %d events, queue reports %d", e.now, n, q.n)
	}
}

// randomDelay mixes the shapes that stress the wheel: same-cycle bursts,
// delays straddling the 255/256 wheel edge, short and medium hops, and far
// jumps into the overflow heap.
func randomDelay(rng *rand.Rand) Time {
	switch r := rng.Intn(20); {
	case r < 6:
		return 0
	case r < 10:
		return wheelSize - 2 + Time(rng.Intn(4)) // 254..257
	case r < 11:
		return 1000 + Time(rng.Intn(20_000))
	default:
		return Time(rng.Intn(300))
	}
}

// runRandomSchedule drives a serial engine through a dynamically growing
// random schedule and returns the events in firing order together with
// every event scheduled. When an event finds itself the last one pending it
// schedules a far event, so the clock jumps over an empty wheel to the
// overflow heap.
func runRandomSchedule(t *testing.T, seed int64, limit Time) (fired, scheduled []qstamp, e *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e = NewEngine()
	e.Limit = limit
	var seq uint64
	budget := 6000
	var schedule func(at Time)
	schedule = func(at Time) {
		seq++
		s := qstamp{at, seq}
		scheduled = append(scheduled, s)
		e.At(at, func() {
			if e.Now() != s.at {
				t.Fatalf("event (%d,%d) ran at %d", s.at, s.seq, e.Now())
			}
			fired = append(fired, s)
			if budget <= 0 {
				return
			}
			budget--
			if e.Pending() == 0 {
				schedule(e.Now() + wheelSize*4 + Time(rng.Intn(10_000)))
				for k := rng.Intn(4); k > 0; k-- {
					schedule(e.Now() + randomDelay(rng))
				}
				return
			}
			for k := rng.Intn(3); k > 0; k-- {
				schedule(e.Now() + randomDelay(rng))
			}
			if rng.Intn(64) == 0 { // same-cycle burst
				for k := 0; k < 20; k++ {
					schedule(e.Now())
				}
			}
		})
	}
	for i := 0; i < 16; i++ {
		schedule(Time(rng.Intn(600)))
	}
	for steps := 0; e.Step(); steps++ {
		if steps%97 == 0 {
			checkQueue(t, e)
		}
	}
	checkQueue(t, e)
	return fired, scheduled, e
}

// TestQueueMatchesReferenceSort is the differential test: on randomized
// schedules the engine must fire exactly the scheduled events, in the
// (at, seq) order of a reference sort, across many wheel revolutions.
func TestQueueMatchesReferenceSort(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fired, scheduled, e := runRandomSchedule(t, seed, 0)
		ref := append([]qstamp(nil), scheduled...)
		sort.Slice(ref, func(i, j int) bool { return stampLess(ref[i], ref[j]) })
		if !reflect.DeepEqual(fired, ref) {
			for i := range fired {
				if fired[i] != ref[i] {
					t.Fatalf("seed %d: position %d fired (%d,%d), reference (%d,%d)",
						seed, i, fired[i].at, fired[i].seq, ref[i].at, ref[i].seq)
				}
			}
			t.Fatalf("seed %d: fired %d events, scheduled %d", seed, len(fired), len(ref))
		}
		if revs := e.Now() / wheelSize; revs < 50 {
			t.Fatalf("seed %d: run covered only %d wheel revolutions", seed, revs)
		}
		if e.q.tailInserts != 0 {
			t.Fatalf("seed %d: serial engine took the tail-insertion path %d times", seed, e.q.tailInserts)
		}
	}
}

// TestQueueLimitOnBucket sets Limit exactly on the time of a scheduled
// event, for several such times: every event at or before the limit runs,
// in reference order, and none after it.
func TestQueueLimitOnBucket(t *testing.T) {
	const seed = 5
	_, scheduled, _ := runRandomSchedule(t, seed, 0)
	ref := append([]qstamp(nil), scheduled...)
	sort.Slice(ref, func(i, j int) bool { return stampLess(ref[i], ref[j]) })
	for _, pick := range []int{len(ref) / 7, len(ref) / 3, len(ref) / 2, len(ref) - 2} {
		limit := ref[pick].at
		fired, scheduled, e := runRandomSchedule(t, seed, limit)
		var want []qstamp
		for _, s := range ref {
			if s.at <= limit {
				want = append(want, s)
			}
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("limit %d: fired %d events, want the %d at or before it", limit, len(fired), len(want))
		}
		if e.Now() != limit {
			t.Fatalf("limit %d: clock stopped at %d", limit, e.Now())
		}
		if pending := len(scheduled) - len(fired); pending != e.Pending() || pending == 0 || !e.LimitHit() {
			t.Fatalf("limit %d: %d unfired, engine pending %d, limit hit %v", limit, pending, e.Pending(), e.LimitHit())
		}
	}
}

// TestQueueWheelEdges pins the boundary cases directly: delays of 255 and
// 256 land on either side of the wheel/overflow split yet keep (time, seq)
// order against later direct inserts, and a jump over an empty wheel lands
// on a far overflow event whose same-cycle successors stay FIFO.
func TestQueueWheelEdges(t *testing.T) {
	e := NewEngine()
	var got []string
	log := func(tag string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", tag, e.Now())) }
	}
	e.At(0, func() {
		e.At(255, log("w255"))  // last wheel slot
		e.At(256, log("o256a")) // first overflow time
		e.At(256, log("o256b"))
		e.At(10_000, log("far"))
		e.At(10_000, log("far2"))
	})
	e.At(1, func() {
		// Now 256 is inside the window, but the overflow events for it were
		// scheduled first and must still run first.
		e.At(256, log("w256"))
	})
	e.At(255, func() { e.At(256, log("w256late")) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w255@255", "o256a@256", "o256b@256", "w256@256", "w256late@256", "far@10000", "far2@10000"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestQueueShardedTailInsert drains and fences into an occupied bucket out
// of rank order: shard 1 schedules a local event for t=20 at t=5; a fence
// posted by shard 0 at t=1 and a cross-shard send from t=0 both schedule
// for t=20 too, and only resolve after shard 1 has run past t=5. The serial
// order (send, fence, local) must hold, which takes the tail-insertion path.
func TestQueueShardedTailInsert(t *testing.T) {
	run := func(shards int) ([]string, uint64) {
		var engs [2]*Engine
		var c *Cluster
		if shards == 1 {
			e := NewEngine()
			engs = [2]*Engine{e, e}
		} else {
			c = NewCluster(2, 10)
			engs = [2]*Engine{c.Shard(0), c.Shard(1)}
		}
		a, b := engs[0], engs[1]
		var got []string
		log := func(tag string) func() { return func() { got = append(got, tag) } }
		a.At(0, func() { a.DeferTo(b, func() { b.At(20, log("send")) }) })
		a.At(1, func() { a.Fence(func() { b.At(20, log("fence")) }) })
		b.At(5, func() { b.At(20, log("local")) })
		var err error
		var inserts uint64
		if c != nil {
			_, err = c.Run(0, nil)
			inserts = a.q.tailInserts + b.q.tailInserts
		} else {
			_, err = a.Run()
			inserts = a.q.tailInserts
		}
		if err != nil {
			t.Fatal(err)
		}
		return got, inserts
	}
	want := []string{"send", "fence", "local"}
	serial, serialInserts := run(1)
	sharded, shardedInserts := run(2)
	if !reflect.DeepEqual(serial, want) || !reflect.DeepEqual(sharded, want) {
		t.Fatalf("serial %v, sharded %v, want %v", serial, sharded, want)
	}
	if serialInserts != 0 {
		t.Fatalf("serial engine took the tail-insertion path %d times", serialInserts)
	}
	if shardedInserts != 2 {
		t.Fatalf("sharded run took the tail-insertion path %d times, want 2", shardedInserts)
	}
}

// TestQueueShardedToyMatchesSerial runs the randomized cross-shard toy (see
// shard_test.go) serially and sharded and requires identical results, and
// that the sharded runs really exercised out-of-rank-order inserts while
// the serial ones never did.
func TestQueueShardedToyMatchesSerial(t *testing.T) {
	var serialInserts, shardedInserts uint64
	for seed := int64(1); seed <= 6; seed++ {
		serial := newToySim(4, 1, 14, seed)
		sharded := newToySim(4, 2, 14, seed)
		for _, s := range []*toySim{serial, sharded} {
			if _, err := s.run(); err != nil {
				t.Fatal(err)
			}
		}
		serialInserts += serial.serial.q.tailInserts
		for i := 0; i < sharded.cluster.Shards(); i++ {
			shardedInserts += sharded.cluster.Shard(i).q.tailInserts
		}
		for i := range serial.nodes {
			if !reflect.DeepEqual(serial.nodes[i].log, sharded.nodes[i].log) {
				t.Fatalf("seed %d: node %d log differs between serial and sharded runs", seed, i)
			}
		}
		if !reflect.DeepEqual(serial.fenceLog, sharded.fenceLog) {
			t.Fatalf("seed %d: fence order differs", seed)
		}
	}
	if serialInserts != 0 {
		t.Fatalf("serial engines took the tail-insertion path %d times", serialInserts)
	}
	if shardedInserts == 0 {
		t.Fatal("sharded toy runs never inserted out of rank order: the test lost its teeth")
	}
}
