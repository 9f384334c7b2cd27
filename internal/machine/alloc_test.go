package machine_test

import (
	"reflect"
	"runtime"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/protocol"
	"ccnuma/internal/workload"
)

// The tests below gate the serial hot path's allocation discipline: a
// processor re-issues one bus transaction for all its misses, and the
// engine, bus and processor schedule callbacks bound once, so a run
// allocates well under one object per event once its slabs are warm.

// ppcKernel builds a serial 4x4 PPC machine with a test-size kernel set up
// on it.
func ppcKernel(t *testing.T, app string) (*machine.Machine, workload.Workload) {
	t.Helper()
	cfg, err := config.Base().WithArch("PPC")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 4
	m, err := machine.New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(app, workload.SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	return m, w
}

// barrierEnv calls after once the wrapped processor leaves its first
// barrier.
type barrierEnv struct {
	prog.Env
	after func()
}

func (e *barrierEnv) Barrier() {
	e.Env.Barrier()
	if e.after != nil {
		e.after()
		e.after = nil
	}
}

// maxAllocsPerEvent bounds the heap allocations per executed event after
// warm-up. The serial fft PPC run measures about 0.43 (the remaining
// allocations are per message and per controller transaction, not per bus
// retry); with a fresh transaction and closures per bus retry round it
// measured 1.8.
const maxAllocsPerEvent = 1.0

func TestSerialRunAllocsPerEvent(t *testing.T) {
	m, w := ppcKernel(t, "fft")
	var ms runtime.MemStats
	var warmMallocs, warmEvents uint64
	if _, err := m.Run(func(e prog.Env) {
		if e.ID() == 0 {
			// Warm-up ends when processor 0 leaves its first barrier: the
			// event queue, caches and controller tables have reached their
			// working size by then.
			e = &barrierEnv{Env: e, after: func() {
				runtime.ReadMemStats(&ms)
				warmMallocs, warmEvents = ms.Mallocs, m.Executed()
			}}
		}
		w.Body(e)
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	events := m.Executed() - warmEvents
	if warmEvents == 0 || events < 10_000 {
		t.Fatalf("warm-up ended after %d events, leaving %d to measure", warmEvents, events)
	}
	perEvent := float64(ms.Mallocs-warmMallocs) / float64(events)
	t.Logf("%.3f allocs/event over %d events after warm-up", perEvent, events)
	if perEvent > maxAllocsPerEvent {
		t.Fatalf("%.3f allocs/event after warm-up, bound %.1f", perEvent, maxAllocsPerEvent)
	}
}

// TestProcTxnDoneStaysBound runs radix, whose misses the controller defers
// and completes with a deferred reply thousands of times, then checks that
// every processor's reused transaction still completes through the
// processor's own callback:
// the controller's completion hook must not wrap Done, or the wrappers
// would chain from miss to miss on the reused transaction.
func TestProcTxnDoneStaysBound(t *testing.T) {
	m, w := ppcKernel(t, "radix")
	bound := make([]uintptr, len(m.Procs))
	for i, p := range m.Procs {
		bound[i] = reflect.ValueOf(p.MissTxn().Done).Pointer()
	}
	if _, err := m.Run(w.Body); err != nil {
		t.Fatal(err)
	}
	var deferred uint64
	for _, cc := range m.CCs {
		for _, h := range []protocol.Handler{
			protocol.HBusReadRemote, protocol.HBusReadExRemote,
			protocol.HBusReadLocalDirtyRemote, protocol.HBusReadExLocalCachedRemote,
			protocol.HBusReadExLocalDirtyRemote,
		} {
			deferred += cc.HandlerCount(h)
		}
	}
	if deferred < 1000 {
		t.Fatalf("only %d deferred bus transactions; the test needs many", deferred)
	}
	for i, p := range m.Procs {
		if got := reflect.ValueOf(p.MissTxn().Done).Pointer(); got != bound[i] {
			t.Fatalf("processor %d: transaction Done was replaced during the run (after %d deferred misses)", i, deferred)
		}
	}
}
