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
// processor re-issues one bus transaction for all its misses; the
// coherence controller keeps its queued work by value and draws its bus
// transactions, deferred actions, outgoing messages and message bodies
// from free lists; the bus, the write-back buffer and the network reuse
// their reply transactions and message flights; and every callback on
// those paths is bound once per slot. A warm run therefore allocates next
// to nothing per event: at test size on 4x4 PPC, fft, ocean and radix
// measure 0.041, 0.048 and 0.038 allocs/event (0.42, 0.86 and 0.72 with a
// fresh object per message and per controller transaction).

// ppcKernel builds a serial 4x4 PPC machine with a test-size kernel set up
// on it.
func ppcKernel(t testing.TB, app string) (*machine.Machine, workload.Workload) {
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
// warm-up. What remains is per miss episode, not per message or bus
// transaction: the home op or MSHR entry (whose pointer identity is the
// controller's staleness check), occasional map and free-list growth, and
// the programs' own allocations.
const maxAllocsPerEvent = 0.1

func TestSerialRunAllocsPerEvent(t *testing.T) {
	for _, app := range []string{"fft", "ocean", "radix"} {
		t.Run(app, func(t *testing.T) {
			perEvent, events := warmAllocsPerEvent(t, app)
			t.Logf("%.3f allocs/event over %d events after warm-up", perEvent, events)
			if perEvent > maxAllocsPerEvent {
				t.Fatalf("%.3f allocs/event after warm-up, bound %.1f", perEvent, maxAllocsPerEvent)
			}
		})
	}
}

// warmAllocsPerEvent runs app on a serial 4x4 PPC machine and returns the
// heap allocations per event from the end of warm-up to the end of the
// run, and the number of events measured.
func warmAllocsPerEvent(t *testing.T, app string) (float64, uint64) {
	m, w := ppcKernel(t, app)
	var ms runtime.MemStats
	var warmMallocs, warmEvents uint64
	if _, err := m.Run(func(e prog.Env) {
		if e.ID() == 0 {
			// Warm-up ends when processor 0 leaves its first barrier: the
			// event queue, caches, controller tables and free lists have
			// reached their working size by then.
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
	return float64(ms.Mallocs-warmMallocs) / float64(events), events
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

// BenchmarkPPCRun runs each kernel at test size on a serial 4x4 PPC
// machine and reports the heap allocations per executed event and the
// events per second of the timed run (machine and workload set-up are
// outside the timer).
func BenchmarkPPCRun(b *testing.B) {
	for _, app := range []string{"fft", "ocean", "radix"} {
		b.Run(app, func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			var mallocs, events uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, w := ppcKernel(b, app)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if _, err := m.Run(w.Body); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				events += m.Executed()
			}
			b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
