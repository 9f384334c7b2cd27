package machine_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/workload"
)

// The tests below pin that a run which ends before its programs do leaves
// no program goroutine parked behind it, serial or sharded, whether Run
// returns an error or panics: each parked goroutine keeps its whole machine
// alive, and a long-lived service fails many runs.

// smallMachine builds a 4x2 machine whose runs fail after 2000 cycles.
func smallMachine(t *testing.T, shards int) *machine.Machine {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimShards = shards
	cfg.SimLimit = 2000
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
			t.Fatalf("%d goroutines still running after the failed runs, %d before", runtime.NumGoroutine(), base)
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
