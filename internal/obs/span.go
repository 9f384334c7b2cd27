// Causal span tracing: every coherence transaction (one processor miss
// episode) carries a stable ID from the cycle its miss is detected to the
// cycle its processor restarts, and each component it crosses checkpoints
// the stages of its life. The tracer tiles each transaction's lifetime
// with half-open stage segments: a checkpoint at cycle t closes the
// interval [cursor, t) under the named stage and advances the cursor, so
// the stages of a completed transaction always partition its end-to-end
// latency exactly — conservation holds by construction, and the residue
// between the last checkpoint and the processor restart is attributed to
// the fill stage. Checkpoints that would move the cursor backwards (stale
// duplicates, replayed messages under fault injection) are silent no-ops;
// the only conservation violation the tracer can record is a transaction
// finishing before its own cursor, which would mean a component
// checkpointed time the processor never observed. The tiling state lives in
// the Tracer, so every component reaches attribution through the same
// handle it records typed events with.
package obs

import (
	"fmt"

	"ccnuma/internal/sim"
	"ccnuma/internal/stats"
)

// Stage identifies one segment class of a transaction's lifetime.
type Stage int

const (
	// StageStall is the L2 miss-detect window before the bus request issues.
	StageStall Stage = iota
	// StageBusArb is SMP bus arbitration: issue to address strobe.
	StageBusArb
	// StageBus is bus occupancy after the strobe: snoop, data transfer,
	// critical-quad delivery (or the bounce delay of a conflicting retry).
	StageBus
	// StageMem is local-memory bank access time (home memory fetches and
	// the owner/home bus fetches a protocol handler performs).
	StageMem
	// StageCCQueue is coherence-controller input-queue wait: arrival at a
	// protocol engine's queue to handler dispatch — the paper's occupancy
	// bottleneck.
	StageCCQueue
	// StageEngine is protocol-engine occupancy up to the handler's action
	// point (the Table 2 sub-operation sequence actually on the critical
	// path of this transaction).
	StageEngine
	// StageDirectory is directory/DRAM access stalled on under a handler.
	StageDirectory
	// StageHomeWait is home-side transient-op wait: the window where the
	// home has dispatched the request but is collecting invalidation acks,
	// owner data, or an eviction write-back before it can grant.
	StageHomeWait
	// StageNIPort is network-interface port buffering (output-port queue
	// and serialization wait, including reliable-link retransmission holds).
	StageNIPort
	// StageWire is network flight time: out-port grant to last flit drained
	// into the destination NI.
	StageWire
	// StageBackoff is recovery wait: NACK back-off and timeout windows
	// between a bounced request and its re-issue.
	StageBackoff
	// StageFill is the residue between the last checkpoint and the
	// processor's restart: cache fill and restart scheduling.
	StageFill

	numStages
)

var stageNames = [numStages]string{
	"stall", "bus-arb", "bus-xfer", "mem", "cc-queue", "engine",
	"directory", "home-wait", "ni-port", "wire", "backoff", "fill",
}

func (s Stage) String() string {
	if s >= 0 && s < numStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// NumStages is the number of attribution stages.
const NumStages = int(numStages)

// StageName returns the report name of stage index i.
func StageName(i int) string { return Stage(i).String() }

// EvSpan marker kinds (Event.B).
const (
	spanMarkBegin  = 0 // stage entry marker, Dur = 0
	spanMarkSlice  = 1 // measured stage slice, Dur = its length
	spanMarkFinish = 2 // transaction finish, Dur = end-to-end latency
)

// spanState is one open transaction's tracking state.
type spanState struct {
	line   uint64
	node   int32
	start  sim.Time
	cursor sim.Time
	epoch  uint32
	segs   [numStages]sim.Time
}

// EnableAttribution turns on per-transaction latency attribution: from
// now on the span methods below tile transaction lifetimes and aggregate
// them. It must be called before the run starts.
func (t *Tracer) EnableAttribution() {
	if t.open == nil {
		t.open = make(map[uint64]*spanState)
	}
}

// Attributing reports whether the tracer attributes transaction latency.
// Every span method below is a no-op when it reports false.
func (t *Tracer) Attributing() bool { return t != nil && t.open != nil }

// SpanStart opens transaction txn at time at: the requesting processor
// detected a miss on line. An ID of zero (untracked work) is ignored.
func (t *Tracer) SpanStart(txn uint64, node int, line uint64, at sim.Time) {
	if !t.Attributing() || txn == 0 {
		return
	}
	t.mu.Lock()
	t.open[txn] = &spanState{line: line, node: int32(node), start: at, cursor: at}
	t.mu.Unlock()
}

// SetEpoch tags the open transaction with its current request episode so
// checkpoints carrying a stale epoch (messages from a closed, retried
// episode) are ignored. A new episode (timeout or NACK re-issue) simply
// calls SetEpoch again.
func (t *Tracer) SetEpoch(txn uint64, epoch uint32) {
	if !t.Attributing() || txn == 0 {
		return
	}
	t.mu.Lock()
	if st := t.open[txn]; st != nil {
		st.epoch = epoch
	}
	t.mu.Unlock()
}

// match resolves a checkpoint to its open transaction. Epoch zero on
// either side is a wildcard (bus- and CPU-side checkpoints predate epoch
// minting; the base configuration never mints epochs at all).
func (t *Tracer) match(txn uint64, epoch uint32) *spanState {
	if txn == 0 {
		return nil
	}
	st := t.open[txn]
	if st == nil {
		return nil
	}
	if st.epoch != 0 && epoch != 0 && st.epoch != epoch {
		return nil
	}
	return st
}

// SpanBegin marks the entry of txn into a stage at time at. It is an
// informational marker (the attribution math is driven entirely by
// SpanEnd's cursor tiling): it emits a trace event for cctrace/Perfetto
// and anchors the lint pairing rule, but moves no cursor.
func (t *Tracer) SpanBegin(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	if !t.Attributing() {
		return
	}
	t.mu.Lock()
	st := t.match(txn, epoch)
	if st == nil {
		t.mu.Unlock()
		return
	}
	node, line := int(st.node), st.line
	t.mu.Unlock()
	t.span(at, 0, node, stage.String(), line, txn, spanMarkBegin)
}

// SpanEnd closes the open interval [cursor, at) under the given stage and
// advances the cursor. Checkpoints at or before the cursor (duplicate or
// stale deliveries, same-cycle hops) are silent no-ops: they attribute
// zero cycles rather than corrupt the tiling.
func (t *Tracer) SpanEnd(txn uint64, stage Stage, epoch uint32, at sim.Time) {
	if !t.Attributing() {
		return
	}
	t.mu.Lock()
	st := t.match(txn, epoch)
	if st == nil || at <= st.cursor {
		t.mu.Unlock()
		return
	}
	t.span(st.cursor, at-st.cursor, int(st.node), stage.String(), st.line, txn, spanMarkSlice)
	st.segs[stage] += at - st.cursor
	st.cursor = at
	t.mu.Unlock()
}

// SpanFinish completes transaction txn at time at (the processor
// restart), attributing the residue past the last checkpoint to StageFill
// and folding the transaction into the aggregate distributions. A finish
// before the transaction's own cursor is the one true conservation
// violation: some component checkpointed cycles past the observed
// end-to-end latency.
func (t *Tracer) SpanFinish(txn uint64, at sim.Time) {
	if !t.Attributing() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.open[txn]
	if st == nil {
		return
	}
	delete(t.open, txn)
	if at < st.cursor {
		t.violations++
		return
	}
	if at > st.cursor {
		t.span(st.cursor, at-st.cursor, int(st.node), StageFill.String(), st.line, txn, spanMarkSlice)
		st.segs[StageFill] += at - st.cursor
	}
	for i := Stage(0); i < numStages; i++ {
		if st.segs[i] > 0 {
			t.stages[i].Add(st.segs[i])
			t.totals[i] += st.segs[i]
		}
	}
	t.endToEnd.Add(at - st.start)
	t.completed++
	t.span(st.start, at-st.start, int(st.node), "txn", st.line, txn, spanMarkFinish)
}

// SpanAbandon discards an open transaction without aggregating it (the
// processor dropped the miss episode: a racing snoop turned the retry into
// a plain cache hit).
func (t *Tracer) SpanAbandon(txn uint64) {
	if !t.Attributing() {
		return
	}
	t.mu.Lock()
	delete(t.open, txn)
	t.mu.Unlock()
}

// OpenSpans returns how many transactions are currently open.
func (t *Tracer) OpenSpans() int {
	if !t.Attributing() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Attribution snapshots the aggregate attribution into the stats-layer
// form the reports consume. Returns nil when attribution is off.
func (t *Tracer) Attribution() *stats.Attribution {
	if !t.Attributing() {
		return nil
	}
	a := &stats.Attribution{
		Completed:  t.completed,
		Violations: t.violations,
		EndToEnd:   t.endToEnd,
	}
	for i := Stage(0); i < numStages; i++ {
		a.Stages = append(a.Stages, stats.StageAttribution{
			Stage: i.String(), Total: t.totals[i], Hist: t.stages[i],
		})
	}
	return a
}

// CheckConservation verifies the attribution invariants after a run: no
// transaction finished past its cursor, no transaction leaked open, and
// the per-stage totals sum cycle-exactly to the end-to-end total.
func (t *Tracer) CheckConservation() error {
	if !t.Attributing() {
		return nil
	}
	if t.violations > 0 {
		return fmt.Errorf("obs: %d span conservation violations (stage cycles past end-to-end latency)", t.violations)
	}
	if len(t.open) > 0 {
		return fmt.Errorf("obs: %d transaction spans leaked open after run end", len(t.open))
	}
	var sum sim.Time
	for i := range t.totals {
		sum += t.totals[i]
	}
	if int64(sum) != t.endToEnd.Sum {
		return fmt.Errorf("obs: stage cycles (%d) != end-to-end cycles (%d) over %d transactions",
			sum, t.endToEnd.Sum, t.completed)
	}
	return nil
}
