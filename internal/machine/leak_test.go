package machine_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
	"ccnuma/internal/workload"
)

// The tests below pin that no run leaves a program coroutine (and the
// goroutine under it) parked behind it, serial or sharded, whether it
// completes, returns an error or panics: each parked program keeps its
// whole machine alive, and a long-lived service runs many machines.

// smallMachine builds a 4x2 machine whose runs fail after 2000 cycles.
func smallMachine(t *testing.T, shards int) *machine.Machine {
	t.Helper()
	return limitedMachine(t, shards, 2000)
}

// limitedMachine builds a 4x2 machine whose runs fail after limit cycles
// (0 = no limit).
func limitedMachine(t *testing.T, shards int, limit sim.Time) *machine.Machine {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimShards = shards
	cfg.SimLimit = limit
	m, err := machine.New(cfg, "leak")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitGoroutines polls until no more than base goroutines run.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFailedRunReleasesPrograms(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 3; i++ {
				m := smallMachine(t, shards)
				w, err := workload.New("fft", workload.SizeTest, m.NProcs())
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Setup(m); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(w.Body); err == nil {
					t.Fatal("fft finished within 2000 cycles; the test needs a failing run")
				}
			}
			waitGoroutines(t, base)
		})
	}
}

func TestPanickedRunReleasesPrograms(t *testing.T) {
	base := runtime.NumGoroutine()
	m := smallMachine(t, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unlocking a free lock must panic")
			}
		}()
		_, _ = m.Run(func(e prog.Env) {
			if e.ID() == 0 {
				e.Unlock(1)
			}
			e.Barrier()
		})
	}()
	waitGoroutines(t, base)
}

func TestCompletedRunReleasesPrograms(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := limitedMachine(t, shards, 0)
			w, err := workload.New("fft", workload.SizeTest, m.NProcs())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Setup(m); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(w.Body); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}

// programFault is the value processor 3's program panics with.
type programFault struct{ proc int }

// TestProgramPanicReachesCaller pins that a panic inside a workload program
// surfaces from Run on the caller's goroutine with the program's own value,
// and that the other programs, parked at a barrier, are released.
func TestProgramPanicReachesCaller(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := limitedMachine(t, shards, 0)
			addr := m.Space.AllocOnNode(4096, 0)
			func() {
				defer func() {
					if r := recover(); r != (programFault{proc: 3}) {
						t.Fatalf("Run panicked with %v, want processor 3's fault", r)
					}
				}()
				_, _ = m.Run(func(e prog.Env) {
					e.Read(addr)
					if e.ID() == 3 {
						panic(programFault{proc: 3})
					}
					e.Barrier()
				})
			}()
			waitGoroutines(t, base)
		})
	}
}
