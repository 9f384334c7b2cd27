// Package sim provides the deterministic discrete-event simulation engine
// underlying the CC-NUMA machine model. Simulated time is measured in
// compute-processor clock cycles (5 ns at 200 MHz, matching the paper's
// parameter tables). All model components schedule closures on a single
// Engine; the engine executes them in (time, sequence) order, which makes
// every simulation bit-for-bit reproducible.
package sim

import (
	"fmt"
)

// Time is a simulated timestamp or duration in compute-processor cycles
// (5 ns each). Negative durations are invalid.
type Time int64

// Nanoseconds converts a Time to nanoseconds using the paper's 200 MHz
// compute-processor clock.
func (t Time) Nanoseconds() float64 { return float64(t) * 5.0 }

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with NewEngine. Engine is not safe for concurrent use: all model code
// runs on the single goroutine that called Run (workload programs are
// coroutines that the engine's own events resume, and they never touch the
// engine).
// Independent simulations each own their engine, so whole runs can execute
// concurrently (see internal/runner).
type Engine struct {
	now Time
	seq uint64
	// q is the time-wheel event queue (queue.go). Its node slab and
	// overflow heap keep their capacity, so a simulation reaches its
	// high-water queue depth once and then schedules allocation-free.
	q queue
	// stopped is set by Stop; Run drains no further events once set.
	stopped bool
	// executed counts events run, for debugging, runaway detection, and
	// events-per-second throughput accounting (obs.MeasurePerf).
	executed uint64
	// maxPending tracks the queue's high-water mark (slab size reporting).
	maxPending int
	// limitHit records that the run ended because Limit was exceeded.
	limitHit bool
	// Limit optionally bounds simulated time; Run returns an error if the
	// event horizon passes Limit (guards against protocol livelock bugs).
	Limit Time

	// Sharded-mode state (nil/zero on a serial engine). cluster links the
	// engine to its Cluster, shard is its index there, cur is the scheduling
	// context of the event currently executing on this engine's worker,
	// fence holds a quiesce request posted by the current event, and
	// crossSends counts DeferTo publications originating here.
	cluster    *Cluster
	shard      int
	cur        Ctx
	fence      *fenceReq
	crossSends uint64
}

// NewEngine returns an empty engine at time zero with no time limit.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// MaxPending reports the event queue's high-water mark: the slab capacity a
// simulation of this shape needs.
func (e *Engine) MaxPending() int { return e.maxPending }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug rather than a recoverable condition.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := event{at: t, fn: fn}
	if c := e.cluster; c != nil {
		if c.draining && t < c.drainHorizon {
			panic(fmt.Sprintf("sim: cross-shard lookahead violated: drained send schedules at %d before window horizon %d", t, c.drainHorizon))
		}
		ctx := c.ctx(e)
		if ctx == &e.cur && e.fence != nil {
			// A fence body runs inline on a serial engine but after the
			// posting event's body on a sharded one; scheduling on the
			// posting engine after Fence could therefore tie-break
			// differently against the body's own events. Requiring Fence
			// in tail position keeps the orders provably identical.
			panic("sim: event scheduled on its own engine after posting a Fence")
		}
		ev.rank = &rankNode{t: ctx.at, parent: ctx.parent, idx: ctx.next}
		ctx.next++
	} else {
		e.seq++
		ev.seq = e.seq
	}
	e.q.push(ev, e.now)
	if e.q.n > e.maxPending {
		e.maxPending = e.q.n
	}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// Stop halts the run loop after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and advances time to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	t, ok := e.peek()
	if !ok {
		return false
	}
	if e.Limit > 0 && t > e.Limit {
		e.stopped = true
		e.limitHit = true
		return false
	}
	e.pop(t).fn()
	return true
}

// peek reports the time of the earliest pending event, or false when the
// engine is stopped or its queue is empty. Serial stepping and sharded
// windows both decide through it whether to run the next event.
func (e *Engine) peek() (Time, bool) {
	if e.stopped {
		return 0, false
	}
	return e.q.peek(e.now)
}

// pop removes the earliest event, whose time t peek reported, advances the
// clock to it, and sets the scheduling context its body runs under.
func (e *Engine) pop(t Time) event {
	ev := e.q.take(t)
	e.now = t
	e.executed++
	if e.cluster != nil {
		e.cur = Ctx{parent: ev.rank, at: t}
	}
	return ev
}

// Sharded reports whether the engine belongs to a Cluster. Model components
// use it to route cross-shard effects through DeferTo/Fence instead of
// calling into another engine directly.
func (e *Engine) Sharded() bool { return e.cluster != nil }

// Run executes events until the queue is empty, Stop is called, or the time
// limit (if any) is exceeded. It returns the final simulated time and an
// error if the time limit was hit with work still pending.
func (e *Engine) Run() (Time, error) {
	for e.Step() {
	}
	if e.limitHit {
		return e.now, fmt.Errorf("sim: time limit %d exceeded at t=%d with %d events pending", e.Limit, e.now, e.q.n)
	}
	return e.now, nil
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.q.n }

// LimitHit reports whether stepping stopped because the time limit was
// exceeded (for callers driving Step directly instead of Run).
func (e *Engine) LimitHit() bool { return e.limitHit }
