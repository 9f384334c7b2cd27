// Command perfbench is the repository benchmark. It drives the simulator
// and the experiment service through their public APIs on four fixed
// workloads and prints one JSON result line:
//
//	perfbench --workload miss-heavy --seed 3 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer metrics of a separate traced run (a
// CPU profile attributed to the repository's modules, an Env timing
// wrapper, and spans around the set-up, run and verify calls). Every
// simulated count is checked against a recorded digest, so a run whose
// outputs change counts those operations as failed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them, and none of them is ever zero on a healthy run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"refs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
	{"cells_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"sim.share", "frac"},
	{"sim.refs", "count"},
	{"sim.events", "count"},
	{"sim.events_per_ref", "ratio"},
	{"sim.ns_per_event", "ns"},
	{"sim.max_pending", "count"},
	{"sim.shard_share", "frac"},
	{"sim.windows", "count"},
	{"sim.events_per_window", "ratio"},
	{"sim.fences", "count"},
	{"sim.cross_sends_per_event", "ratio"},
	{"cpu.share", "frac"},
	{"workload.share", "frac"},
	{"workload.self_s", "s"},
	{"workload.setup_s", "s"},
	{"workload.verify_s", "s"},
	{"machine.share", "frac"},
	{"machine.new_s", "s"},
	{"cache.share", "frac"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l2_hit_ratio", "ratio"},
	{"smpbus.share", "frac"},
	{"smpbus.txns", "count"},
	{"smpbus.retries_per_miss", "ratio"},
	{"smpbus.grant_ratio", "ratio"},
	{"core.share", "frac"},
	{"core.dispatches", "count"},
	{"core.utilization", "frac"},
	{"core.queue_delay_p99_cycles", "cycles"},
	{"directory.share", "frac"},
	{"directory.cache_hit_ratio", "ratio"},
	{"interconnect.share", "frac"},
	{"interconnect.messages", "count"},
	{"interconnect.flits_per_message", "ratio"},
	{"serve.share", "frac"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.compute_p50_ms", "ms"},
	{"serve.compute_p99_ms", "ms"},
	{"serve.artifact_get_p50_ms", "ms"},
	{"serve.cells_hit", "count"},
	{"serve.cells_computed", "count"},
	{"serve.rejected", "count"},
	{"serve.cell_retries", "count"},
	{"runner.share", "frac"},
	{"runner.busy_workers_mean", "workers"},
	{"store.share", "frac"},
	{"store.put_p50_ms", "ms"},
	{"store.get_p50_ms", "ms"},
	{"store.puts", "count"},
	{"store.gets", "count"},
	{"store.verify_fails", "count"},
	{"runtime.sched_share", "frac"},
	{"runtime.gc_share", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.bytes_per_event", "B/event"},
	{"runtime.cpu_per_wall", "ratio"},
	{"other.share", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.samples", "count"},
	{"failed_frac", "frac"},
}

// outcome is what one workload run measured: operations attempted and
// failed, and the metric values of its mode (untraced or traced).
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func (o *outcome) note(err error, log io.Writer) {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(log, "perfbench: failed operation: %v\n", err)
	}
}

// options are the knobs of one workload run.
type options struct {
	seed   int64
	budget time.Duration
	traced bool
	log    io.Writer
	// workDir holds the service's temporary stores.
	workDir string
}

// workloadFunc runs one workload in the mode opts selects.
type workloadFunc func(opts options) (*outcome, error)

// workloads maps each benchmark workload name to its runner at full length.
var workloads = map[string]workloadFunc{
	"miss-heavy":         missHeavy.run,
	"hit-heavy":          hitHeavy.run,
	"miss-heavy-sharded": missHeavySharded.run,
	"serve-mix":          serveMix.run,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report turns an outcome into the result document of its mode. A missing
// end-to-end metric is an error; a per-layer metric the workload does not
// exercise reads 0.
func report(o *outcome, traced bool) (*result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
		o.values["failed_frac"] = float64(o.failed) / float64(o.attempted)
	} else {
		o.values["ok_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
		o.values["peak_rss_mb"] = peakRSSMB()
	}
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: miss-heavy, hit-heavy, miss-heavy-sharded or serve-mix")
	seed := fs.Int64("seed", 0, "workload seed; the generated inputs are the only thing the program receives from it")
	seconds := fs.Int("seconds", 25, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 reports per-layer metrics from a traced run")
	record := fs.Int("record-digests", 0, "print the digests of seeds 0..n-1 of every simulation workload as digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record > 0 {
		if err := recordDigests(*record, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o, err := wl(options{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		log:     stderr,
		workDir: workDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := report(o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workDir is where the service's temporary stores live, relative to the
// checkout root the benchmark runs from.
const workDir = ".bench_build/work"
