package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ccnuma/internal/scenario"
	"ccnuma/internal/serve"
	"ccnuma/internal/sim"
	"ccnuma/internal/store"
)

// serveWorkload drives an in-process experiment service with a closed
// loop of clients, each on one connection, submitting single-cell
// scenarios drawn from a kernel × arch × netlat pool. Every batch starts a
// fresh server on a fresh store and replays the same submission sequence,
// so each distinct cell is computed exactly once per batch and every
// repeat is a store hit.
type serveWorkload struct {
	kernels    []string
	archs      []string
	netlats    []int
	nodes, ppn int
	clients    int
	batch      int     // submissions per batch, a multiple of len(kernels)
	repeatFrac float64 // share of submissions that repeat an earlier cell
	minBatches int
}

var serveMix = serveWorkload{
	kernels: []string{"fft", "lu", "ocean", "radix", "cholesky", "water-sp", "water-nsq", "barnes"},
	archs:   []string{"HWC", "PPC", "2HWC", "2PPC"},
	netlats: []int{14, 20, 28, 40, 56, 80, 100, 140},
	nodes:   4,
	ppn:     2,
	clients: 2,
	batch:   240,
	// With 40% repeats the median submission is a fast compute; at 60%
	// it would be a tail percentile of the sub-millisecond hits, which
	// varies far more from run to run.
	repeatFrac: 0.4,
	// Five batches give 1200 submissions, so at least ten lie beyond p99.
	minBatches: 5,
}

// sequence draws the batch's submission documents from the seed. Every
// kernel gets the same number of submissions, of which exactly repeatFrac
// (never its first) repeat one of the kernel's earlier cells chosen
// uniformly; the rest are first sightings of distinct (arch, netlat)
// cells, spread evenly over the archs. The positions are shuffled. Fixing
// each kernel's and arch's share keeps the simulated work of a batch
// nearly the same from seed to seed.
func (w serveWorkload) sequence(seed int64) ([][]byte, error) {
	per := w.batch / len(w.kernels)
	firsts := per - int(w.repeatFrac*float64(per)+0.5)
	if per*len(w.kernels) != w.batch || firsts < 1 || firsts > len(w.archs)*len(w.netlats) {
		return nil, fmt.Errorf("serve-mix: a batch of %d over %d kernels cannot draw %d first sightings per kernel from %d cells",
			w.batch, len(w.kernels), firsts, len(w.archs)*len(w.netlats))
	}
	rng := rand.New(rand.NewSource(seed))
	slots := make([]int, 0, w.batch)
	for k := range w.kernels {
		for i := 0; i < per; i++ {
			slots = append(slots, k)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	type kernelDraw struct {
		first []bool // first[i]: the kernel's i-th submission is a first sighting
		cells []int  // (arch, netlat) cells in the order first sightings take them
		seen  [][]byte
	}
	draws := make([]kernelDraw, len(w.kernels))
	for k := range draws {
		d := &draws[k]
		d.first = make([]bool, per)
		d.first[0] = true
		for _, i := range rng.Perm(per - 1)[:firsts-1] {
			d.first[i+1] = true
		}
		// Spread the kernel's first sightings evenly over the archs, each
		// with distinct netlats, in a random order.
		lats := make([][]int, len(w.archs))
		for a := range lats {
			lats[a] = rng.Perm(len(w.netlats))
		}
		for j := 0; j < firsts; j++ {
			a := j % len(w.archs)
			d.cells = append(d.cells, a*len(w.netlats)+lats[a][j/len(w.archs)])
		}
		rng.Shuffle(len(d.cells), func(i, j int) { d.cells[i], d.cells[j] = d.cells[j], d.cells[i] })
	}
	docs := make([][]byte, 0, w.batch)
	count := make([]int, len(w.kernels))
	for _, k := range slots {
		d := &draws[k]
		i := count[k]
		count[k]++
		if !d.first[i] {
			docs = append(docs, d.seen[rng.Intn(len(d.seen))])
			continue
		}
		c := d.cells[len(d.seen)]
		spec := scenario.Default()
		m, err := spec.Machine.WithArch(w.archs[c/len(w.netlats)])
		if err != nil {
			return nil, err
		}
		m.Nodes, m.ProcsPerNode = w.nodes, w.ppn
		m.NetLatency = sim.Time(w.netlats[c%len(w.netlats)])
		spec.Machine = m
		spec.Workload = scenario.Workload{App: w.kernels[k], Size: "test", Seed: seed}
		doc, err := spec.Canonical()
		if err != nil {
			return nil, err
		}
		d.seen = append(d.seen, doc)
		docs = append(docs, doc)
	}
	return docs, nil
}

// submission is one client request and its outcome.
type submission struct {
	lat    time.Duration
	status string // serve.StatusHit / StatusComputed / StatusError
	fp     string
	exec   int64
	err    error
}

// batch is one server lifetime: start, the clients' submissions, drain.
type batch struct {
	// setups holds the start times of the servers restarted on the
	// batch's populated store.
	setups    []time.Duration
	wall      time.Duration
	subs      []submission
	gets      []time.Duration
	artifacts map[string][]byte // artifact bytes by fingerprint, as first fetched
	rechecks  []error           // one per artifact re-read after the batch
	status    statusz
	cpu       time.Duration
	gcs       uint32
}

// statusz is the part of the service's /statusz document the benchmark
// reports.
type statusz struct {
	Counters serve.Counters `json:"counters"`
	Store    store.Stats    `json:"store"`
	Pool     *struct {
		AvgBusy float64 `json:"avg_busy"`
	} `json:"pool"`
}

// client is one closed-loop client with its own single connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	subs []submission
	gets []time.Duration
	arts map[string][]byte
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, tr: tr, arts: map[string][]byte{}}
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// submit posts one scenario and, when this request computed the cell,
// fetches the new artifact once.
func (c *client) submit(doc []byte) {
	s := submission{status: serve.StatusError}
	defer func() { c.subs = append(c.subs, s) }()
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/submit", "application/json", bytes.NewReader(doc))
	if err != nil {
		s.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil || len(sr.Cells) != 1 {
		s.err = fmt.Errorf("submit: malformed response (%v): %s", err, body)
		return
	}
	cr := sr.Cells[0]
	s.status, s.fp, s.exec = cr.Status, cr.Fp, cr.ExecCycles
	if cr.Status == serve.StatusError {
		s.err = fmt.Errorf("cell %s failed: %+v", cr.Fp, cr.Failure)
		return
	}
	if cr.Status == serve.StatusComputed {
		t1 := time.Now()
		art, err := c.get("/v1/artifact/" + cr.Fp)
		c.gets = append(c.gets, time.Since(t1))
		if err != nil {
			s.err = err
			return
		}
		c.arts[cr.Fp] = art
	}
}

// runBatch starts a server on a fresh store, runs the clients over docs
// (each client takes the next unsent submission when its previous one
// completes, so the clients share the work evenly) and drains the server.
// It then restarts the server extraSetups times on the batch's populated
// store, timing each start including store recovery. With lp non-nil the
// client phase runs under the CPU profiler.
func (w serveWorkload) runBatch(docs [][]byte, workDir string, lp *layerProfile) (*batch, error) {
	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	b := &batch{artifacts: map[string][]byte{}}
	srv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	err = w.drive(b, srv, docs, lp)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	for i := 0; err == nil && i < extraSetups; i++ {
		if srv, err = startServer(dir); err == nil {
			b.setups = append(b.setups, srv.startup)
			err = srv.stop()
		}
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// drive runs the clients' closed loops against srv, then reads /statusz
// and re-reads every artifact computed in the batch.
func (w serveWorkload) drive(b *batch, srv *server, docs [][]byte, lp *layerProfile) error {
	base := "http://" + srv.Addr()
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(base)
	}
	defer func() {
		for _, c := range clients {
			c.tr.CloseIdleConnections()
		}
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	phase := func() {
		t0 := time.Now()
		var wg sync.WaitGroup
		var next atomic.Int64 // the next submission any client takes
		for _, c := range clients {
			wg.Add(1)
			// The clients run on plain goroutines, not runner's pool: the
			// service records runner pool utilization process-wide for
			// /statusz, and client jobs on that pool would count as busy
			// workers.
			//cclint:ignore no-goroutine closed-loop clients must stay off runner's process-wide utilization recorder that /statusz reports
			go func(c *client) {
				defer wg.Done()
				for j := next.Add(1) - 1; j < int64(len(docs)); j = next.Add(1) - 1 {
					c.submit(docs[j])
				}
			}(c)
		}
		wg.Wait()
		b.wall = time.Since(t0)
	}
	if lp == nil {
		phase()
	} else if err := lp.profiled(phase); err != nil {
		return err
	}
	b.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	b.gcs = ms1.NumGC - ms0.NumGC

	for _, c := range clients {
		b.subs = append(b.subs, c.subs...)
		b.gets = append(b.gets, c.gets...)
		for fp, art := range c.arts {
			b.artifacts[fp] = art
		}
	}
	status, err := clients[0].get("/statusz")
	if err == nil {
		err = json.Unmarshal(status, &b.status)
	}
	if err != nil {
		return fmt.Errorf("serve-mix: statusz: %w", err)
	}
	// Re-read every artifact after the batch: the bytes later hits were
	// served must equal the bytes the compute published.
	for fp, art := range b.artifacts {
		again, err := clients[0].get("/v1/artifact/" + fp)
		if err == nil && !bytes.Equal(again, art) {
			err = fmt.Errorf("artifact %s changed between compute and a later read", fp)
		}
		b.rechecks = append(b.rechecks, err)
	}
	return nil
}

// server is a started service.
type server struct {
	*serve.Server
	errc    <-chan error
	startup time.Duration // serve.New (which opens and recovers the store) plus Start
}

// startServer starts a service on the store in dir.
func startServer(dir string) (*server, error) {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.StoreDir = dir
	cfg.Jobs = 2
	cfg.Out = io.Discard
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	errc, err := srv.Start()
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return &server{Server: srv, errc: errc, startup: time.Since(t0)}, nil
}

// stop drains the service and waits for its listener to exit.
func (s *server) stop() error {
	if err := s.Shutdown(); err != nil {
		return fmt.Errorf("serve-mix: shutdown: %w", err)
	}
	if err := <-s.errc; err != nil {
		return fmt.Errorf("serve-mix: server: %w", err)
	}
	return nil
}

// artifactRefs is the simulated reference count recorded in an artifact.
func artifactRefs(art []byte) (uint64, error) {
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(art, &doc); err != nil {
		return 0, err
	}
	return doc.Counters["reads"] + doc.Counters["writes"], nil
}

// batches runs batches until one more would likely overrun the budget,
// and at least min of them.
func (w serveWorkload) batches(docs [][]byte, opts options, budget time.Duration, min int, lp *layerProfile) ([]*batch, error) {
	var out []*batch
	start := time.Now()
	var last time.Duration // the previous batch, restarts and re-reads included
	for len(out) < min || time.Since(start)+last <= budget {
		it := time.Now()
		b, err := w.runBatch(docs, opts.workDir, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		last = time.Since(it)
	}
	return out, nil
}

// check counts every submission, artifact re-read and artifact as one
// operation. A submission fails on a transport error, a non-200 response
// (429 included), a failed cell or a failed fetch of the artifact it
// computed; a hit fails when its execution cycles differ from the computed
// cell's. A re-read fails when the bytes differ from those first fetched,
// an artifact when its bytes differ from the same cell's in an earlier
// batch.
func (w serveWorkload) check(o *outcome, first map[string][]byte, bs []*batch, log io.Writer) {
	for _, b := range bs {
		exec := map[string]int64{}
		for _, s := range b.subs {
			if s.status == serve.StatusComputed && s.err == nil {
				exec[s.fp] = s.exec
			}
		}
		for _, s := range b.subs {
			err := s.err
			if err == nil && s.status == serve.StatusHit && exec[s.fp] != s.exec {
				err = fmt.Errorf("hit %s reports %d cycles, its compute %d", s.fp, s.exec, exec[s.fp])
			}
			o.note(err, log)
		}
		for _, err := range b.rechecks {
			o.note(err, log)
		}
		for fp, art := range b.artifacts {
			var err error
			if prev, ok := first[fp]; !ok {
				first[fp] = art
			} else if !bytes.Equal(prev, art) {
				err = fmt.Errorf("artifact %s differs between batches", fp)
			}
			o.note(err, log)
		}
	}
}

func (w serveWorkload) run(opts options) (*outcome, error) {
	docs, err := w.sequence(opts.seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}}
	first := map[string][]byte{}
	if !opts.traced {
		bs, err := w.batches(docs, opts, opts.budget, w.minBatches, nil)
		if err != nil {
			return nil, err
		}
		w.check(o, first, bs, opts.log)
		return o, w.endToEnd(o.values, bs)
	}
	ref, err := w.batches(docs, opts, opts.budget/3, 1, nil)
	if err != nil {
		return nil, err
	}
	lp := newLayerProfile()
	traced, err := w.batches(docs, opts, opts.budget-opts.budget/3, 1, lp)
	if err != nil {
		return nil, err
	}
	w.check(o, first, ref, opts.log)
	w.check(o, first, traced, opts.log)
	puts, gets, err := sideStore(first, opts.workDir)
	o.note(err, opts.log)
	if err := w.perLayer(o.values, ref, traced, lp); err != nil {
		return nil, err
	}
	o.values["store.put_p50_ms"] = quantile(puts, 0.5)
	o.values["store.get_p50_ms"] = quantile(gets, 0.5)
	return o, nil
}

func (w serveWorkload) endToEnd(v map[string]float64, bs []*batch) error {
	refs := map[string]uint64{}
	for _, b := range bs {
		for fp, art := range b.artifacts {
			n, err := artifactRefs(art)
			if err != nil {
				return fmt.Errorf("artifact %s: %w", fp, err)
			}
			refs[fp] = n
		}
	}
	var walls, setups, rates, cellRates, lats []float64
	for _, b := range bs {
		for _, d := range b.setups {
			setups = append(setups, d.Seconds())
		}
		var served uint64
		for _, s := range b.subs {
			if s.err == nil {
				served += refs[s.fp]
			}
			if s.status == serve.StatusHit || s.status == serve.StatusComputed {
				lats = append(lats, ms(s.lat))
			}
		}
		walls = append(walls, b.wall.Seconds())
		rates = append(rates, float64(served)/b.wall.Seconds())
		cellRates = append(cellRates, float64(len(b.subs))/b.wall.Seconds())
	}
	v["wall_s"] = median(walls)
	v["setup_s"] = median(setups)
	v["refs_per_s"] = median(rates)
	v["cells_per_s"] = median(cellRates)
	v["submit_p50_ms"] = quantile(lats, 0.50)
	v["submit_p99_ms"] = quantile(lats, 0.99)
	return nil
}

func (w serveWorkload) perLayer(v map[string]float64, ref, traced []*batch, lp *layerProfile) error {
	shares, err := lp.shares()
	if err != nil {
		return err
	}
	setShares(v, shares, lp)
	var hit, comp, gets, hits, computed, rejected, retries, busy, puts, sgets, vfails, cpuWall, gcs, tracedRate, refRate []float64
	for _, b := range traced {
		for _, s := range b.subs {
			switch s.status {
			case serve.StatusHit:
				hit = append(hit, ms(s.lat))
			case serve.StatusComputed:
				comp = append(comp, ms(s.lat))
			}
		}
		for _, g := range b.gets {
			gets = append(gets, ms(g))
		}
		st := b.status
		hits = append(hits, float64(st.Counters.CellsHit))
		computed = append(computed, float64(st.Counters.CellsComputed))
		rejected = append(rejected, float64(st.Counters.Rejected))
		retries = append(retries, float64(st.Counters.CellRetries))
		if st.Pool != nil {
			busy = append(busy, st.Pool.AvgBusy)
		}
		puts = append(puts, float64(st.Store.Puts))
		sgets = append(sgets, float64(st.Store.Gets))
		vfails = append(vfails, float64(st.Store.VerifyFails))
		cpuWall = append(cpuWall, b.cpu.Seconds()/b.wall.Seconds())
		gcs = append(gcs, float64(b.gcs))
		tracedRate = append(tracedRate, float64(w.batch)/b.wall.Seconds())
	}
	for _, b := range ref {
		refRate = append(refRate, float64(w.batch)/b.wall.Seconds())
	}
	v["serve.hit_p50_ms"] = quantile(hit, 0.50)
	v["serve.hit_p99_ms"] = quantile(hit, 0.99)
	v["serve.compute_p50_ms"] = quantile(comp, 0.50)
	v["serve.compute_p99_ms"] = quantile(comp, 0.99)
	v["serve.artifact_get_p50_ms"] = quantile(gets, 0.50)
	v["serve.cells_hit"] = median(hits)
	v["serve.cells_computed"] = median(computed)
	v["serve.rejected"] = median(rejected)
	v["serve.cell_retries"] = median(retries)
	v["runner.busy_workers_mean"] = median(busy)
	v["store.puts"] = median(puts)
	v["store.gets"] = median(sgets)
	v["store.verify_fails"] = median(vfails)
	v["runtime.cpu_per_wall"] = median(cpuWall)
	v["runtime.gc_cycles"] = median(gcs)
	v["trace.overhead_frac"] = 1 - median(tracedRate)/median(refRate)
	return nil
}

// sideStore times store.Put and store.Get of the received artifacts on a
// fresh store of its own, outside any server, and checks the bytes read
// back.
func sideStore(arts map[string][]byte, workDir string) (puts, gets []float64, err error) {
	dir, err := os.MkdirTemp(workDir, "side-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	for fp, art := range arts {
		t := time.Now()
		if err := st.Put(fp, art); err != nil {
			return nil, nil, err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	for fp, art := range arts {
		t := time.Now()
		got, ok, err := st.Get(fp)
		gets = append(gets, ms(time.Since(t)))
		if err != nil || !ok || !bytes.Equal(got, art) {
			return nil, nil, fmt.Errorf("side store: %s read back wrong (ok=%v err=%v)", fp, ok, err)
		}
	}
	return puts, gets, nil
}
