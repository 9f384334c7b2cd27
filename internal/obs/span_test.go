package obs

import (
	"strings"
	"testing"

	"ccnuma/internal/sim"
)

// TestSpanTiling checks the cursor-tiling core: checkpoints close half-open
// intervals under their stage, the residue before Finish lands in the fill
// stage, and the stages partition the end-to-end latency exactly.
func TestSpanTiling(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	s.SpanStart(1, 0, 0x40, 100)
	s.SpanEnd(1, StageStall, 0, 110)  // [100,110) stall
	s.SpanEnd(1, StageBusArb, 0, 115) // [110,115) bus-arb
	s.SpanEnd(1, StageBus, 0, 140)    // [115,140) bus-xfer
	s.SpanFinish(1, 150)              // [140,150) fill

	a := s.Attribution()
	if a.Completed != 1 || a.Violations != 0 {
		t.Fatalf("completed=%d violations=%d, want 1/0", a.Completed, a.Violations)
	}
	want := map[string]sim.Time{"stall": 10, "bus-arb": 5, "bus-xfer": 25, "fill": 10}
	var sum sim.Time
	for _, st := range a.Stages {
		if st.Total != want[st.Stage] {
			t.Errorf("stage %s = %d cycles, want %d", st.Stage, st.Total, want[st.Stage])
		}
		sum += st.Total
	}
	if int64(sum) != a.EndToEnd.Sum || a.EndToEnd.Sum != 50 {
		t.Errorf("stage sum %d vs end-to-end %d, want both 50", sum, a.EndToEnd.Sum)
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanBackwardCheckpointsIgnored checks that stale or duplicate
// checkpoints (at or before the cursor) attribute nothing rather than
// corrupt the tiling — chaos duplicates and replayed messages hit this.
func TestSpanBackwardCheckpointsIgnored(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	s.SpanStart(7, 0, 0x80, 0)
	s.SpanEnd(7, StageBus, 0, 50)
	s.SpanEnd(7, StageWire, 0, 30) // backward: ignored
	s.SpanEnd(7, StageWire, 0, 50) // zero-length: ignored
	s.SpanFinish(7, 60)
	a := s.Attribution()
	for _, st := range a.Stages {
		if st.Stage == "wire" && st.Total != 0 {
			t.Errorf("backward checkpoint attributed %d cycles to wire", st.Total)
		}
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanEpochFilter checks episode filtering: once an epoch is set, a
// checkpoint carrying a different non-zero epoch is ignored, while epoch
// zero on either side remains a wildcard.
func TestSpanEpochFilter(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	s.SpanStart(3, 0, 0xc0, 0)
	s.SetEpoch(3, 2)
	s.SpanEnd(3, StageWire, 1, 40) // stale episode: ignored
	s.SpanEnd(3, StageWire, 2, 30) // current episode
	s.SpanEnd(3, StageBus, 0, 35)  // wildcard side
	s.SpanFinish(3, 35)
	a := s.Attribution()
	for _, st := range a.Stages {
		switch st.Stage {
		case "wire":
			if st.Total != 30 {
				t.Errorf("wire = %d, want 30 (stale epoch must be ignored)", st.Total)
			}
		case "bus-xfer":
			if st.Total != 5 {
				t.Errorf("bus-xfer = %d, want 5 (zero epoch is a wildcard)", st.Total)
			}
		}
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanViolation checks the one true conservation failure: a transaction
// finishing before its own cursor (a component checkpointed cycles the
// processor never observed) is counted and fails CheckConservation.
func TestSpanViolation(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	s.SpanStart(9, 0, 0x100, 0)
	s.SpanEnd(9, StageBus, 0, 100)
	s.SpanFinish(9, 90)
	if v := s.Attribution().Violations; v != 1 {
		t.Fatalf("violations = %d, want 1", v)
	}
	err := s.CheckConservation()
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("CheckConservation = %v, want violation error", err)
	}
}

// TestSpanReclaim checks span-state lifecycle: Finish and Abandon both
// reclaim the open entry, unknown-transaction operations are no-ops, and a
// leaked open transaction fails CheckConservation.
func TestSpanReclaim(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	s.SpanStart(1, 0, 0, 0)
	s.SpanStart(2, 0, 0, 0)
	s.SpanStart(3, 0, 0, 0)
	if s.OpenSpans() != 3 {
		t.Fatalf("open = %d, want 3", s.OpenSpans())
	}
	s.SpanFinish(1, 10)
	s.SpanAbandon(2)
	s.SpanFinish(99, 10) // unknown: no-op
	s.SpanAbandon(99)    // unknown: no-op
	if s.OpenSpans() != 1 || s.Attribution().Completed != 1 {
		t.Fatalf("open=%d completed=%d, want 1/1", s.OpenSpans(), s.Attribution().Completed)
	}
	if err := s.CheckConservation(); err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("CheckConservation = %v, want leak error", err)
	}
	s.SpanAbandon(3)
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanNilTracker checks that the disabled handles — a nil tracer and a
// tracer with attribution off — accept every span call as a no-op, so call
// sites need no attribution-knob branches.
func TestSpanNilTracker(t *testing.T) {
	var nilTracer *Tracer
	for _, s := range []*Tracer{nilTracer, NewTracer(WithBuffer(16))} {
		checkSpanNoop(t, s)
	}
}

func checkSpanNoop(t *testing.T, s *Tracer) {
	t.Helper()
	if s.Attributing() {
		t.Fatal("disabled tracer reports attributing")
	}
	s.SpanStart(1, 0, 0, 0)
	s.SetEpoch(1, 1)
	s.SpanBegin(1, StageStall, 0, 0)
	s.SpanEnd(1, StageStall, 0, 10)
	s.SpanFinish(1, 10)
	s.SpanAbandon(1)
	if s.OpenSpans() != 0 || s.Recorded() != 0 {
		t.Fatal("disabled tracer accumulated state")
	}
	if s.Attribution() != nil {
		t.Fatal("disabled tracer returned stats")
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanEvents checks the EvSpan emission contract the Chrome-trace and
// cctrace renderers rely on: begin markers, measured slices, and the finish
// event carrying the end-to-end latency.
func TestSpanEvents(t *testing.T) {
	tr := NewTracer()
	s := attributing(tr)
	s.SpanStart(5, 2, 0x40, 100)
	s.SpanBegin(5, StageStall, 0, 100)
	s.SpanEnd(5, StageStall, 0, 120)
	s.SpanFinish(5, 130)
	evs := tr.Events()
	var begins, slices, finishes int
	var sliced sim.Time
	for i := range evs {
		if evs[i].Kind != EvSpan {
			continue
		}
		if evs[i].A != 5 {
			t.Errorf("span event txn = %d, want 5", evs[i].A)
		}
		switch evs[i].B {
		case spanMarkBegin:
			begins++
		case spanMarkSlice:
			slices++
			sliced += evs[i].Dur
		case spanMarkFinish:
			finishes++
			if evs[i].Dur != 30 {
				t.Errorf("finish dur = %d, want 30", evs[i].Dur)
			}
		}
	}
	if begins != 1 || slices != 2 || finishes != 1 {
		t.Fatalf("begins=%d slices=%d finishes=%d, want 1/2/1 (fill residue emits a slice)",
			begins, slices, finishes)
	}
	if sliced != 30 {
		t.Fatalf("slice durations sum to %d, want 30 (slices must tile the lifetime)", sliced)
	}
}

// attributing turns attribution on in tr and returns it.
func attributing(tr *Tracer) *Tracer {
	tr.EnableAttribution()
	return tr
}

// TestAttributionOnlyRecordsNothing checks that a tracer with neither ring
// nor sink attributes spans while recording no typed events — not even the
// event count, which shard workers sharing the tracer would race on.
func TestAttributionOnlyRecordsNothing(t *testing.T) {
	s := attributing(NewTracer(WithBuffer(0)))
	if s.Enabled() {
		t.Fatal("tracer without ring or sink reports recording")
	}
	s.Dispatch(1, 0, 0, "x", 0x40, 5, 0)
	s.SpanStart(1, 0, 0x40, 0)
	s.SpanBegin(1, StageStall, 0, 0)
	s.SpanEnd(1, StageStall, 0, 10)
	s.SpanFinish(1, 20)
	if s.Recorded() != 0 || s.Events() != nil {
		t.Fatalf("attribution-only tracer recorded %d events", s.Recorded())
	}
	if a := s.Attribution(); a.Completed != 1 || a.EndToEnd.Sum != 20 {
		t.Fatalf("completed=%d end-to-end=%d, want 1/20", a.Completed, a.EndToEnd.Sum)
	}
}
