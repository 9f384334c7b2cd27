package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ccnuma/internal/workload"
)

// The self-test runs every workload at a reduced length: test-size kernels
// on a 4×2 machine and an 18-submission service batch.

func reducedSim(w simWorkload) simWorkload {
	w.size = workload.SizeTest
	w.nodes, w.ppn = 4, 2
	w.minPasses = 2
	w.digests = nil
	return w
}

var reducedServe = serveWorkload{
	kernels:    []string{"fft", "lu", "ocean"},
	archs:      []string{"HWC", "PPC"},
	netlats:    []int{14, 40},
	nodes:      4,
	ppn:        2,
	clients:    2,
	batch:      18,
	repeatFrac: 0.4,
	minBatches: 1,
}

func reducedWorkloads() map[string]workloadFunc {
	return map[string]workloadFunc{
		"miss-heavy":         reducedSim(missHeavy).run,
		"hit-heavy":          reducedSim(hitHeavy).run,
		"miss-heavy-sharded": reducedSim(missHeavySharded).run,
		"serve-mix":          reducedServe.run,
	}
}

func testOptions(t *testing.T, traced bool, budget time.Duration) options {
	return options{seed: 3, budget: budget, traced: traced, log: io.Discard, workDir: t.TempDir()}
}

// benchmarkDoc is the part of BENCHMARK.json the self-test checks.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestMetricsMatchBenchmarkJSON pins the driver's metric tables and
// workloads to BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: driver has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: driver %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, driver %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no driver", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced and checks
// that every metric is reported with its unit, that end-to-end metrics are
// never zero, that nothing failed, and that the traced shares sum to 1.
func TestEveryMetricEmitted(t *testing.T) {
	for name, run := range reducedWorkloads() {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				budget := time.Duration(0)
				if traced {
					budget = 600 * time.Millisecond // enough profile samples
				}
				o, err := run(testOptions(t, traced, budget))
				if err != nil {
					t.Fatal(err)
				}
				res, err := report(o, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("traced=%v: %s missing", traced, d.name)
					case m.Unit != d.unit:
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					case !traced && !(m.Value > 0):
						t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					sum := 0.0
					for _, d := range perLayer {
						if strings.HasSuffix(d.name, "share") && d.name != "sim.shard_share" {
							sum += res.Metrics[d.name].Value
						}
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("shares sum to %v, want 1", sum)
					}
					if res.Metrics["trace.samples"].Value == 0 {
						t.Error("traced run recorded no profile samples")
					}
				}
			}
		})
	}
}

// TestSimulatedCountsRepeat checks that two runs of each simulation
// workload give identical digests, that the sharded twin reproduces the
// serial digests, and that the service's hit/compute split is exact.
func TestSimulatedCountsRepeat(t *testing.T) {
	digests := func(w simWorkload) []string {
		cfg, err := w.config()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := w.passes(cfg, 3, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range ps[0].cells {
			if c.err != nil {
				t.Fatalf("%s: %v", c.kernel, c.err)
			}
			out = append(out, c.kernel+"="+c.digest)
		}
		return out
	}
	for _, w := range []simWorkload{reducedSim(missHeavy), reducedSim(hitHeavy)} {
		a, b := digests(w), digests(w)
		if strings.Join(a, " ") != strings.Join(b, " ") {
			t.Errorf("digests differ across runs: %v vs %v", a, b)
		}
	}
	serial, sharded := digests(reducedSim(missHeavy)), digests(reducedSim(missHeavySharded))
	if strings.Join(serial, " ") != strings.Join(sharded, " ") {
		t.Errorf("sharded digests %v, serial %v", sharded, serial)
	}

	w := reducedServe
	docs, err := w.sequence(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, err := w.runBatch(docs, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		c := b.status.Counters
		if c.CellsComputed != uint64(len(b.artifacts)) || c.CellsHit+c.CellsComputed != uint64(w.batch) {
			t.Errorf("batch %d: %d computed, %d hit, %d artifacts of %d submissions", i, c.CellsComputed, c.CellsHit, len(b.artifacts), w.batch)
		}
	}
}

// TestInjectedDigestMismatchFails checks that a digest differing from the
// recorded one counts every affected cell as a failed operation.
func TestInjectedDigestMismatchFails(t *testing.T) {
	w := reducedSim(missHeavy)
	w.digests = digestTable{w.digestKey("fft"): {"3": "0000000000000000"}}
	o, err := w.run(testOptions(t, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := report(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != w.minPasses || res.Metrics["ok_frac"].Value != 0.5 {
		t.Errorf("correct=%v failed=%d ok_frac=%v, want the %d fft cells failed", res.Correct, res.Failed, res.Metrics["ok_frac"].Value, w.minPasses)
	}
}

// TestAttributionBuckets pins the nearest-module rule.
func TestAttributionBuckets(t *testing.T) {
	for _, tc := range []struct {
		stack   []frame
		want    string
		inShard bool
	}{
		{[]frame{{"runtime.mallocgc", "malloc.go"}, {"ccnuma/internal/cache.New", "/x/internal/cache/cache.go"}, {"ccnuma/internal/machine.New", "m.go"}}, "cache", false},
		{[]frame{{"ccnuma/internal/sim.rankLess", "/x/internal/sim/shard.go"}, {"ccnuma/internal/sim.(*Engine).push", "/x/internal/sim/engine.go"}}, "sim", true},
		{[]frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, bucketGC, false},
		{[]frame{{"runtime.futex", "os_linux.go"}, {"runtime.schedule", "proc.go"}, {"runtime.mcall", "asm.s"}}, bucketSched, false},
		{[]frame{{"net/http.(*conn).serve", "server.go"}}, bucketOther, false},
	} {
		got, inShard := bucket(tc.stack)
		if got != tc.want || inShard != tc.inShard {
			t.Errorf("bucket(%v) = %s, %v; want %s, %v", tc.stack, got, inShard, tc.want, tc.inShard)
		}
	}
}
