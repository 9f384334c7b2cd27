package cpu

import (
	"testing"

	"ccnuma/internal/cache"
	"ccnuma/internal/config"
	"ccnuma/internal/memaddr"
	"ccnuma/internal/prog"
	"ccnuma/internal/sim"
	"ccnuma/internal/smpbus"
)

// noSync panics on any synchronization: these tests use none.
type noSync struct{}

func (noSync) Barrier(*Proc)   { panic("unexpected barrier") }
func (noSync) Lock(*Proc, int) { panic("unexpected lock") }
func (noSync) Unlock(*Proc, int) {
	panic("unexpected unlock")
}

// testRig is one node's bus with memory and no coherence controller:
// enough to exercise the processor's cache hierarchy timing.
func testRig(t testing.TB, procs int) (*sim.Engine, *config.Config, *memaddr.Space, *smpbus.Bus, []*Proc) {
	t.Helper()
	cfg := config.Base()
	cfg.Nodes = 1
	cfg.ProcsPerNode = procs
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	eng.Limit = 10_000_000
	space := memaddr.NewSpace(&cfg)
	bus := smpbus.New(eng, &cfg, 0, nil)
	var ps []*Proc
	for i := 0; i < procs; i++ {
		ps = append(ps, New(eng, &cfg, i, 0, bus, space, noSync{}, nil))
	}
	return eng, &cfg, space, bus, ps
}

func run(t *testing.T, eng *sim.Engine, ps []*Proc, progs ...func(prog.Env)) {
	t.Helper()
	for i, p := range ps {
		p.Run(progs[i])
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if done, _ := p.Finished(); !done {
			t.Fatalf("proc %d did not finish", p.ID())
		}
	}
}

func TestCacheHitHierarchy(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e prog.Env) {
		e.Read(base)      // cold miss
		e.Read(base)      // L1 hit
		e.Read(base + 8)  // L1 hit (same line)
		e.Write(base)     // needs exclusivity: E->M silent (we were sole reader)
		e.Read(base + 64) // same 128B line: L1 hit
	})
	p := ps[0]
	c := p.Counters()
	if c["misses"] != 1 {
		t.Fatalf("misses = %d, want 1", c["misses"])
	}
	if c["l1Hits"] < 3 {
		t.Fatalf("l1 hits = %d, want >= 3", c["l1Hits"])
	}
	if p.Instructions() != 5 {
		t.Fatalf("instructions = %d, want 5", p.Instructions())
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e prog.Env) {
		e.Read(base)
		e.Compute(1000)
		e.Read(base)
	})
	if eng.Now() < 1000 {
		t.Fatalf("compute did not advance time: %d", eng.Now())
	}
	if ps[0].Instructions() != 1002 {
		t.Fatalf("instructions = %d, want 1002", ps[0].Instructions())
	}
}

func TestExclusiveThenSilentUpgrade(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e prog.Env) {
		e.Read(base)  // installs Exclusive (no other sharers)
		e.Write(base) // E -> M silently, no bus transaction
	})
	if got := bus.Count(smpbus.Upgrade); got != 0 {
		t.Fatalf("silent E->M issued %d upgrades", got)
	}
	if bus.Count(smpbus.Read) != 1 {
		t.Fatalf("reads = %d", bus.Count(smpbus.Read))
	}
}

func TestSharingAndUpgrade(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e prog.Env) { // proc 0: read then later write
			e.Read(base)
			e.Compute(500)
			e.Write(base)
		},
		func(e prog.Env) { // proc 1: read (creating sharing)
			e.Compute(100)
			e.Read(base)
			e.Compute(2000)
		})
	// Proc 0's write found the line Shared -> an Upgrade appears.
	if got := bus.Count(smpbus.Upgrade); got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e prog.Env) {
			e.Write(base) // M in proc 0
			e.Compute(5000)
		},
		func(e prog.Env) {
			e.Compute(500)
			e.Read(base) // c2c from proc 0's M copy
		})
	// The second read must NOT have gone to memory: one memory access for
	// proc 0's fill, the c2c supplies the other. Check proc 0 downgraded
	// to Owned.
	line := space.Line(base)
	if st := ps[0].l2.Lookup(line); st != cache.Owned {
		t.Fatalf("supplier state = %v, want Owned", st)
	}
	if st := ps[1].l2.Lookup(line); st != cache.Shared {
		t.Fatalf("reader state = %v, want Shared", st)
	}
	_ = bus
}

func TestOwnedWriterUpgradesInPlace(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e prog.Env) {
			e.Write(base) // M
			e.Compute(5000)
			e.Write(base) // now Owned (after proc 1's read): upgrade, RequesterOwns
		},
		func(e prog.Env) {
			e.Compute(500)
			e.Read(base)
			e.Compute(10000)
		})
	line := space.Line(base)
	if st := ps[0].l2.Lookup(line); st != cache.Modified {
		t.Fatalf("owner state after re-write = %v, want Modified", st)
	}
	if st := ps[1].l2.Lookup(line); st != cache.Invalid {
		t.Fatalf("stale sharer state = %v, want Invalid", st)
	}
	if got := bus.Count(smpbus.Upgrade); got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}
}

func TestEvictionWritesBack(t *testing.T) {
	eng, cfg, space, bus, ps := testRig(t, 1)
	// Touch more lines than one L2 set holds to force dirty evictions:
	// lines mapping to the same set are L2Size/L2Assoc apart.
	setStride := uint64(cfg.L2Size / cfg.L2Assoc)
	base := space.Alloc(int(setStride) * 8)
	run(t, eng, ps, func(e prog.Env) {
		for i := 0; i < 6; i++ {
			e.Write(base + uint64(i)*setStride)
		}
	})
	if got := bus.Count(smpbus.WriteBack); got < 1 {
		t.Fatalf("no write-backs after overflowing a set (got %d)", got)
	}
}

func TestL1Inclusion(t *testing.T) {
	eng, _, space, bus, ps := testRig(t, 2)
	base := space.Alloc(4096)
	run(t, eng, ps,
		func(e prog.Env) {
			e.Read(base)
			e.Compute(2000)
			// After proc 1's write invalidated us (including L1), this
			// read must miss again.
			e.Read(base)
		},
		func(e prog.Env) {
			e.Compute(500)
			e.Write(base)
		})
	if got := ps[0].Counters()["misses"]; got != 2 {
		t.Fatalf("proc 0 misses = %d, want 2 (L1 must be back-invalidated)", got)
	}
	_ = bus
}

func TestSyncAccessCallback(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	p := ps[0]
	fired := false
	eng.At(0, func() {
		p.SyncAccess(base, true, func() { fired = true })
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("sync access callback never fired")
	}
	if p.Counters()["writes"] != 1 {
		t.Fatal("sync access not counted")
	}
}

func TestOverlappingSyncAccessPanics(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	p := ps[0]
	defer func() {
		if recover() == nil {
			t.Error("overlapping SyncAccess did not panic")
		}
	}()
	eng.At(0, func() {
		p.SyncAccess(base, true, func() {})
		p.SyncAccess(base+128, true, func() {})
	})
	_, _ = eng.Run()
}

func TestReadWriteRangeHelpers(t *testing.T) {
	eng, _, space, _, ps := testRig(t, 1)
	base := space.Alloc(4096)
	run(t, eng, ps, func(e prog.Env) {
		e.ReadRange(base, 16)
		e.WriteRange(base, 16)
	})
	c := ps[0].Counters()
	if c["reads"] != 16 || c["writes"] != 16 {
		t.Fatalf("reads=%d writes=%d, want 16/16", c["reads"], c["writes"])
	}
}

// BenchmarkL1HitHandoff measures one L1-hit reference end to end: the engine
// resumes the program, the program issues a load of a resident line, and the
// processor models the hit and schedules the next resumption. Each engine
// step is one such reference.
func BenchmarkL1HitHandoff(b *testing.B) {
	eng, _, space, _, ps := testRig(b, 1)
	eng.Limit = 0
	p := ps[0]
	addr := space.Alloc(4096)
	p.Run(func(e prog.Env) {
		for {
			e.Read(addr)
		}
	})
	defer p.Abort()
	// The cold miss makes the line resident; every later load hits in L1.
	for p.Counters()["l1Hits"] == 0 {
		eng.Step()
	}
	before := p.Counters()["l1Hits"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.StopTimer()
	if hits := p.Counters()["l1Hits"] - before; hits != uint64(b.N) {
		b.Fatalf("%d L1 hits in %d steps", hits, b.N)
	}
}

// wbRecorder records the lines of the write-backs that reach the snoop
// (a bounced write-back never does).
type wbRecorder struct{ lines []uint64 }

func (r *wbRecorder) Snoop(txn *smpbus.Txn) smpbus.SnoopResult {
	if txn.Kind == smpbus.WriteBack {
		r.lines = append(r.lines, txn.Line)
	}
	return smpbus.SnoopNone
}

// TestWriteBackRetryKeepsItsSlot pins the write-back slot release: a
// write-back bounced by a live same-line transfer keeps its slot through
// the back-off. A second eviction during the back-off must take another
// slot; had the bounce released the first, the second would have taken it
// over and the first line would never be written back.
func TestWriteBackRetryKeepsItsSlot(t *testing.T) {
	eng, cfg, space, bus, ps := testRig(t, 2)
	cfg.BusRetry = 200
	rec := &wbRecorder{}
	bus.AttachSnooper(rec)
	base := space.Alloc(4096)
	lineA, lineB := base, base+uint64(cfg.LineSize)
	p, other := ps[0], ps[1]
	p.vals[lineA], p.vals[lineB] = 111, 222
	eng.At(0, func() {
		// other's read of lineA is a live memory transfer when p's
		// write-back of lineA strobes, so the write-back bounces.
		bus.Issue(&smpbus.Txn{Kind: smpbus.Read, Line: lineA, Src: other.src, HomeLocal: true,
			Done: func(smpbus.Outcome) {}})
		p.writeBack(lineA)
	})
	eng.At(50, func() { p.writeBack(lineB) })
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.Retries() == 0 {
		t.Fatal("the write-back of lineA did not bounce")
	}
	if len(rec.lines) != 2 || rec.lines[0] != lineB || rec.lines[1] != lineA {
		t.Fatalf("write-backs reached the bus for %#x, want [%#x %#x]", rec.lines, lineB, lineA)
	}
	if len(p.wbFree) != 2 {
		t.Errorf("%d write-back slots free, want 2", len(p.wbFree))
	}
}
