package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/prog"
	"ccnuma/internal/scenario"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// simWorkload is a paper run: kernels executed back to back, each on a
// fresh machine of one configuration. One pass runs every kernel once.
type simWorkload struct {
	arch       string
	size       workload.SizeClass
	nodes, ppn int
	shards     int // config.SimShards: 1 is the serial engine
	kernels    []string
	// minPasses is the fewest passes a run makes whatever its budget, so
	// the reported medians always have several samples.
	minPasses int
	// digests are the recorded digests runs must reproduce; nil disables
	// the table (a run still checks that its passes agree).
	digests digestTable
}

var (
	missHeavy = simWorkload{
		arch: "PPC", size: workload.SizeBase, nodes: 16, ppn: 4, shards: 1,
		kernels: []string{"fft", "radix"}, minPasses: 3, digests: recorded,
	}
	hitHeavy = simWorkload{
		arch: "HWC", size: workload.SizeLarge, nodes: 16, ppn: 4, shards: 1,
		kernels: []string{"ocean", "water-sp"}, minPasses: 3, digests: recorded,
	}
	missHeavySharded = func() simWorkload {
		w := missHeavy
		w.shards = 2
		return w
	}()
)

func (w simWorkload) config() (config.Config, error) {
	cfg, err := config.Base().WithArch(w.arch)
	if err != nil {
		return cfg, err
	}
	cfg.SimLimit = scenario.DefaultSimLimit
	cfg.Nodes, cfg.ProcsPerNode = w.nodes, w.ppn
	cfg.SimShards = w.shards
	return cfg, nil
}

// digestKey names a kernel run independently of the engine's sharding:
// a sharded run must reproduce the serial run's digest.
func (w simWorkload) digestKey(kernel string) string {
	return fmt.Sprintf("%s/%s/%s/%dx%d", kernel, w.arch, w.size, w.nodes, w.ppn)
}

// cell is one kernel run of a pass.
type cell struct {
	kernel string
	// seedKey is the seed the kernel's inputs depend on: 0 for kernels
	// whose inputs ignore seeds.
	seedKey                     int64
	newD, setupD, runD, verifyD time.Duration
	run                         *stats.Run
	events                      uint64
	maxPending                  int
	windows, fences, crossSends uint64
	digest                      string
	err                         error

	// Traced runs only: program self time between Env calls, allocation
	// and GC deltas across machine.Run, and process CPU time inside it.
	self          time.Duration
	mallocs, heap uint64
	gcs           uint32
	cpu           time.Duration
}

func (c *cell) refs() uint64 {
	if c.run == nil {
		return 0
	}
	return c.run.Counter("reads") + c.run.Counter("writes")
}

// setUp builds a kernel's machine and inputs through the public APIs:
// machine.New, then workload.NewSeeded and Setup.
func (w simWorkload) setUp(cfg config.Config, c *cell, seed int64) (*machine.Machine, workload.Workload, error) {
	t0 := time.Now()
	m, err := machine.New(cfg, c.kernel)
	c.newD = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	wl, err := workload.NewSeeded(c.kernel, w.size, m.NProcs(), seed)
	if err == nil {
		if _, ok := wl.(workload.Seedable); ok {
			c.seedKey = seed
		}
		err = wl.Setup(m)
	}
	c.setupD = time.Since(t1)
	return m, wl, err
}

// runCell sets a kernel up, runs it with machine.Run, then applies the
// coherence and result checks.
func (w simWorkload) runCell(cfg config.Config, kernel string, seed int64, traced bool) *cell {
	c := &cell{kernel: kernel}
	m, wl, err := w.setUp(cfg, c, seed)
	if err != nil {
		c.err = err
		return c
	}

	body := wl.Body
	var envs []timedEnv
	var ms0, ms1 runtime.MemStats
	var cpu0 time.Duration
	if traced {
		envs = make([]timedEnv, m.NProcs())
		body = func(e prog.Env) {
			// Each processor's program goroutine owns its own slot.
			te := &envs[e.ID()]
			te.Env = e
			te.last = time.Now()
			wl.Body(te)
			te.self += time.Since(te.last)
		}
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuTime()
	}
	t2 := time.Now()
	r, err := m.Run(body)
	c.runD = time.Since(t2)
	if traced {
		c.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		c.mallocs = ms1.Mallocs - ms0.Mallocs
		c.heap = ms1.TotalAlloc - ms0.TotalAlloc
		c.gcs = ms1.NumGC - ms0.NumGC
		for i := range envs {
			c.self += envs[i].self
		}
	}
	if err != nil {
		c.err = err
		return c
	}
	c.run = r
	c.events = m.Executed()
	if cl := m.Cluster(); cl != nil {
		c.maxPending = cl.MaxPending()
		c.windows, c.fences, c.crossSends = cl.Windows(), cl.Fences(), cl.CrossSends()
	} else {
		c.maxPending = m.Eng.MaxPending()
	}
	c.digest = digest(r)

	t3 := time.Now()
	if err := m.CheckCoherence(); err != nil {
		c.err = err
	} else if err := wl.Verify(); err != nil {
		c.err = fmt.Errorf("verify: %w", err)
	}
	c.verifyD = time.Since(t3)
	return c
}

// digest summarizes every simulated result of a run: execution time,
// instructions, all counters and the miss-latency histogram.
func digest(r *stats.Run) string {
	h := sha256.New()
	fmt.Fprintf(h, "exec=%d instr=%d\n", r.ExecTime, r.Instructions)
	names := r.CounterNames()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, r.Counters[n])
	}
	ml := &r.MissLatency
	fmt.Fprintf(h, "miss count=%d sum=%d max=%d buckets=%v\n", ml.Count, ml.Sum, ml.MaxVal, ml.Buckets)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timedEnv wraps a processor's Env and accumulates the program's self
// time: the host time between its Env calls, spent in the kernel's own Go
// code rather than in the simulator.
type timedEnv struct {
	prog.Env
	self time.Duration
	last time.Time // when control last returned to the program
}

func (t *timedEnv) enter() { t.self += time.Since(t.last) }
func (t *timedEnv) leave() { t.last = time.Now() }

func (t *timedEnv) Read(a uint64)              { t.enter(); t.Env.Read(a); t.leave() }
func (t *timedEnv) Write(a uint64)             { t.enter(); t.Env.Write(a); t.leave() }
func (t *timedEnv) ReadRange(a uint64, n int)  { t.enter(); t.Env.ReadRange(a, n); t.leave() }
func (t *timedEnv) WriteRange(a uint64, n int) { t.enter(); t.Env.WriteRange(a, n); t.leave() }
func (t *timedEnv) Compute(n int)              { t.enter(); t.Env.Compute(n); t.leave() }
func (t *timedEnv) Barrier()                   { t.enter(); t.Env.Barrier(); t.leave() }
func (t *timedEnv) Lock(id int)                { t.enter(); t.Env.Lock(id); t.leave() }
func (t *timedEnv) Unlock(id int)              { t.enter(); t.Env.Unlock(id); t.leave() }

// pass is one execution of every kernel, with its wall time.
type pass struct {
	cells []*cell
	wall  time.Duration
	// setups holds each kernel's set-up times: its cell's and those of
	// the extra set-ups an untraced pass makes first.
	setups map[string][]time.Duration
}

// extraSetups is how many additional times an untraced pass sets each
// kernel up before running it, so that setup_s is a median of many
// samples rather than of one per pass.
const extraSetups = 4

func (p *pass) sum(f func(*cell) time.Duration) time.Duration {
	var d time.Duration
	for _, c := range p.cells {
		d += f(c)
	}
	return d
}

func (p *pass) refsPerSec() float64 {
	var refs uint64
	for _, c := range p.cells {
		refs += c.refs()
	}
	return float64(refs) / p.sum(func(c *cell) time.Duration { return c.runD }).Seconds()
}

// passes runs passes until one more would likely overrun the budget, and
// at least min of them. Each pass starts from a collected heap. When lp is
// non-nil every pass runs traced and under the CPU profiler.
func (w simWorkload) passes(cfg config.Config, seed int64, budget time.Duration, min int, lp *layerProfile) ([]*pass, error) {
	var out []*pass
	start := time.Now()
	var last time.Duration // the previous iteration, extra set-ups included
	for len(out) < min || time.Since(start)+last <= budget {
		it := time.Now()
		p := &pass{setups: map[string][]time.Duration{}}
		for _, k := range w.kernels {
			for i := 0; lp == nil && i < extraSetups; i++ {
				c := &cell{kernel: k}
				if _, _, err := w.setUp(cfg, c, seed); err != nil {
					return nil, err
				}
				p.setups[k] = append(p.setups[k], c.newD+c.setupD)
				runtime.GC() // keep discarded machines out of peak RSS
			}
		}
		runtime.GC()
		body := func() {
			t0 := time.Now()
			for _, k := range w.kernels {
				c := w.runCell(cfg, k, seed, lp != nil)
				p.cells = append(p.cells, c)
				p.setups[k] = append(p.setups[k], c.newD+c.setupD)
			}
			p.wall = time.Since(t0)
		}
		if lp == nil {
			body()
		} else if err := lp.profiled(body); err != nil {
			return nil, err
		}
		out = append(out, p)
		last = time.Since(it)
	}
	return out, nil
}

// check counts every cell as one operation, failed when its run errored,
// its checks failed, or its digest differs from the recorded one (or, for
// an unrecorded seed, from the first pass of this run).
func (w simWorkload) check(o *outcome, seen map[string]string, ps []*pass, log io.Writer) {
	for _, p := range ps {
		for _, c := range p.cells {
			err := c.err
			if err == nil {
				key := w.digestKey(c.kernel)
				want, ok := w.digests.lookup(key, c.seedKey)
				if !ok {
					want, ok = seen[key]
				}
				if !ok {
					seen[key] = c.digest
				} else if c.digest != want {
					err = fmt.Errorf("%s seed %d: digest %s, want %s", key, c.seedKey, c.digest, want)
				}
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", c.kernel, err)
			}
			o.note(err, log)
		}
	}
}

func (w simWorkload) run(opts options) (*outcome, error) {
	cfg, err := w.config()
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}}
	seen := map[string]string{}
	if !opts.traced {
		ps, err := w.passes(cfg, opts.seed, opts.budget, w.minPasses, nil)
		if err != nil {
			return nil, err
		}
		w.check(o, seen, ps, opts.log)
		w.endToEnd(o.values, ps)
		return o, nil
	}
	// The traced run measures an untraced reference first, so that
	// trace.overhead_frac compares the two within one process.
	ref, err := w.passes(cfg, opts.seed, opts.budget/3, 1, nil)
	if err != nil {
		return nil, err
	}
	lp := newLayerProfile()
	traced, err := w.passes(cfg, opts.seed, opts.budget-opts.budget/3, 1, lp)
	if err != nil {
		return nil, err
	}
	w.check(o, seen, ref, opts.log)
	w.check(o, seen, traced, opts.log)
	if err := w.perLayer(o.values, ref, traced, lp); err != nil {
		return nil, err
	}
	return o, nil
}

func (w simWorkload) endToEnd(v map[string]float64, ps []*pass) {
	var walls, rates, cellRates, lats []float64
	setups := map[string][]float64{}
	for _, p := range ps {
		walls = append(walls, p.wall.Seconds())
		for k, ds := range p.setups {
			for _, d := range ds {
				setups[k] = append(setups[k], d.Seconds())
			}
		}
		rates = append(rates, p.refsPerSec())
		cellRates = append(cellRates, float64(len(p.cells))/p.wall.Seconds())
		// A pass is one submission of the workload: its kernels' results
		// from set-up to verify. Per-kernel latencies would put p50 on the
		// boundary between two kernels' clusters.
		lats = append(lats, ms(p.wall))
	}
	v["wall_s"] = median(walls)
	v["setup_s"] = 0
	for _, k := range w.kernels {
		v["setup_s"] += median(setups[k])
	}
	v["refs_per_s"] = median(rates)
	v["cells_per_s"] = median(cellRates)
	v["submit_p50_ms"] = quantile(lats, 0.50)
	v["submit_p99_ms"] = quantile(lats, 0.99)
}

func (w simWorkload) perLayer(v map[string]float64, ref, traced []*pass, lp *layerProfile) error {
	shares, err := lp.shares()
	if err != nil {
		return err
	}
	setShares(v, shares, lp)

	// Simulated counts repeat exactly across passes; take them from the
	// last traced pass.
	last := traced[len(traced)-1]
	var refs, events, windows, fences, cross, txns, retries, misses, l1, l2 uint64
	var dispatches, dirHits, dirMisses, msgs, flits uint64
	var busy, capacity float64
	var qd stats.Histogram
	maxPending := 0
	for _, c := range last.cells {
		if c.run == nil {
			continue
		}
		r := c.run
		refs += c.refs()
		events += c.events
		windows += c.windows
		fences += c.fences
		cross += c.crossSends
		if c.maxPending > maxPending {
			maxPending = c.maxPending
		}
		for _, n := range r.CounterNames() {
			// bus<Kind> strobe counters; busRetries, busAborts and
			// busStalls count other events.
			if strings.HasPrefix(n, "bus") && n != "busRetries" && n != "busAborts" && n != "busStalls" {
				txns += r.Counter(n)
			}
		}
		retries += r.Counter("busRetries")
		misses += r.Counter("misses")
		l1 += r.Counter("l1Hits")
		l2 += r.Counter("l2Hits")
		dirHits += r.Counter("dirCacheHits")
		dirMisses += r.Counter("dirCacheMisses")
		msgs += r.Counter("netMessages")
		flits += r.Counter("netFlits")
		for i := range r.Controllers {
			cs := &r.Controllers[i]
			dispatches += cs.Dispatches()
			busy += float64(cs.Busy())
			capacity += float64(r.ExecTime) * float64(len(cs.Engines))
		}
		q := r.QueueDelayHistogram()
		qd.Merge(&q)
	}
	v["sim.refs"] = float64(refs)
	v["sim.events"] = float64(events)
	v["sim.events_per_ref"] = ratio(events, refs)
	v["sim.max_pending"] = float64(maxPending)
	v["sim.windows"] = float64(windows)
	v["sim.events_per_window"] = ratio(events, windows)
	v["sim.fences"] = float64(fences)
	v["sim.cross_sends_per_event"] = ratio(cross, events)
	v["cache.l1_hit_ratio"] = ratio(l1, refs)
	v["cache.l2_hit_ratio"] = ratio(l2, refs-l1)
	v["smpbus.txns"] = float64(txns)
	v["smpbus.retries_per_miss"] = ratio(retries, misses)
	v["smpbus.grant_ratio"] = ratio(txns-retries, txns)
	v["core.dispatches"] = float64(dispatches)
	if capacity > 0 {
		v["core.utilization"] = busy / capacity
	}
	v["core.queue_delay_p99_cycles"] = qd.Percentile(99)
	v["directory.cache_hit_ratio"] = ratio(dirHits, dirHits+dirMisses)
	v["interconnect.messages"] = float64(msgs)
	v["interconnect.flits_per_message"] = ratio(flits, msgs)

	// Host-time figures are medians over the traced passes.
	var nsPerEvent, self, newS, setupS, verifyS, allocs, bytesPE, gcs, cpuWall, tracedRate, refRate []float64
	for _, p := range traced {
		var ev, mallocs, heap uint64
		var ngc uint32
		for _, c := range p.cells {
			ev += c.events
			mallocs += c.mallocs
			heap += c.heap
			ngc += c.gcs
		}
		run := p.sum(func(c *cell) time.Duration { return c.runD })
		nsPerEvent = append(nsPerEvent, float64(run.Nanoseconds())/float64(ev))
		self = append(self, p.sum(func(c *cell) time.Duration { return c.self }).Seconds())
		newS = append(newS, p.sum(func(c *cell) time.Duration { return c.newD }).Seconds())
		setupS = append(setupS, p.sum(func(c *cell) time.Duration { return c.setupD }).Seconds())
		verifyS = append(verifyS, p.sum(func(c *cell) time.Duration { return c.verifyD }).Seconds())
		allocs = append(allocs, ratio(mallocs, ev))
		bytesPE = append(bytesPE, ratio(heap, ev))
		gcs = append(gcs, float64(ngc))
		cpuWall = append(cpuWall, p.sum(func(c *cell) time.Duration { return c.cpu }).Seconds()/run.Seconds())
		tracedRate = append(tracedRate, p.refsPerSec())
	}
	for _, p := range ref {
		refRate = append(refRate, p.refsPerSec())
	}
	v["sim.ns_per_event"] = median(nsPerEvent)
	v["workload.self_s"] = median(self)
	v["machine.new_s"] = median(newS)
	v["workload.setup_s"] = median(setupS)
	v["workload.verify_s"] = median(verifyS)
	v["runtime.allocs_per_event"] = median(allocs)
	v["runtime.bytes_per_event"] = median(bytesPE)
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.cpu_per_wall"] = median(cpuWall)
	v["trace.overhead_frac"] = 1 - median(tracedRate)/median(refRate)
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shareMetrics maps the attribution buckets reported by name to their
// metrics; every other bucket is folded into other.share.
var shareMetrics = map[string]string{
	"sim": "sim.share", "cpu": "cpu.share", "cache": "cache.share",
	"smpbus": "smpbus.share", "core": "core.share", "directory": "directory.share",
	"interconnect": "interconnect.share", "workload": "workload.share",
	"machine": "machine.share", "serve": "serve.share", "store": "store.share",
	"runner": "runner.share", bucketSched: "runtime.sched_share", bucketGC: "runtime.gc_share",
}

func setShares(v map[string]float64, shares map[string]float64, lp *layerProfile) {
	named := 0.0
	for _, m := range shareMetrics {
		v[m] = 0
	}
	for b, s := range shares {
		if m, ok := shareMetrics[b]; ok {
			v[m] = s
			named += s
		}
	}
	v["other.share"] = 1 - named
	v["sim.shard_share"] = float64(lp.shard) / float64(lp.total)
	v["trace.samples"] = float64(lp.total)
}
