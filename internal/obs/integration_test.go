// Integration: a real (small, deterministic) simulation produces a coherent
// event stream, a loadable Chrome trace, and a populated time series. The
// external test package lets us import machine without an import cycle.
package obs_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/stats"
	"ccnuma/internal/workload"
)

// runTraced simulates the micro workload at test size with tracing and
// sampling attached.
func runTraced(t *testing.T) (*obs.Tracer, *obs.Sampler) {
	t.Helper()
	cfg := config.Base()
	cfg, err := cfg.WithArch("PPC")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 1_000_000_000

	tr := obs.NewTracer(obs.WithBuffer(1 << 16))
	m, err := machine.NewTraced(cfg, "micro", tr)
	if err != nil {
		t.Fatal(err)
	}
	s := obs.NewSampler(1000)
	m.AttachSampler(s)

	w, err := workload.New("micro", workload.SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(w.Body); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func TestTracedRun(t *testing.T) {
	tr, s := runTraced(t)

	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("traced run recorded no events")
	}
	kinds := map[obs.EventKind]int{}
	lastAt := evs[0].At
	for i := range evs {
		ev := &evs[i]
		kinds[ev.Kind]++
		if ev.At < lastAt {
			t.Fatalf("event %d out of chronological order: %d after %d", i, ev.At, lastAt)
		}
		lastAt = ev.At
		if ev.Text() == "" {
			t.Fatalf("event %d renders empty", i)
		}
	}
	// Every part of the model must have spoken: dispatches, queue movements,
	// bus strobes, network traffic in both directions, directory accesses,
	// and cache transitions.
	for _, k := range []obs.EventKind{
		obs.EvDispatch, obs.EvEnqueue, obs.EvDequeue, obs.EvBusStrobe,
		obs.EvNetSend, obs.EvNetRecv, obs.EvDirRead, obs.EvDirWrite, obs.EvCache,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	// Conservation: every enqueue is eventually dequeued (queues drain by
	// the end of a successful run).
	if kinds[obs.EvEnqueue] != kinds[obs.EvDequeue] {
		t.Errorf("enqueues %d != dequeues %d", kinds[obs.EvEnqueue], kinds[obs.EvDequeue])
	}
	// Each dispatch consumed exactly one queued work item.
	if kinds[obs.EvDispatch] != kinds[obs.EvDequeue] {
		t.Errorf("dispatches %d != dequeues %d", kinds[obs.EvDispatch], kinds[obs.EvDequeue])
	}
	// Network conservation: crossbar delivery loses nothing.
	if kinds[obs.EvNetSend] != kinds[obs.EvNetRecv] {
		t.Errorf("sends %d != recvs %d", kinds[obs.EvNetSend], kinds[obs.EvNetRecv])
	}

	// The trace must export as valid Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]interface{}); !ok {
		t.Fatal("chrome trace missing traceEvents array")
	}

	// The sampler must have probed at least once and seen activity.
	rows := s.Samples()
	if len(rows) == 0 {
		t.Fatal("sampler collected no rows")
	}
	anyUtil := false
	for i := range rows {
		r := &rows[i]
		if r.At <= 0 || r.Node < 0 || r.Node >= 4 {
			t.Fatalf("row %d malformed: %+v", i, r)
		}
		if r.EngineUtilPct > 0 || r.BusDataUtilPct > 0 {
			anyUtil = true
		}
	}
	if !anyUtil {
		t.Error("no sample row shows any engine or bus activity")
	}
}

func TestTracedRunDeterministic(t *testing.T) {
	tr1, _ := runTraced(t)
	tr2, _ := runTraced(t)
	e1, e2 := tr1.Events(), tr2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("run 1 recorded %d events, run 2 %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs between identical runs:\n%s\n%s", i, e1[i].Text(), e2[i].Text())
		}
	}

	// Golden pin: a traced and attributed serial run with forced NACKs
	// (so nack events and back-off spans occur) must reproduce these
	// digests of its event stream, its Chrome export and its attribution
	// aggregate exactly. A change to the instrumentation plumbing that
	// moves any event, field or attributed cycle breaks them.
	const (
		wantEvents      = "3a610ea9d11666f1bda5c3be5b7e5a890770554c3892c3a51b07e5e5bcacb811"
		wantChrome      = "6f01728dd0e495502f06501a9f731c1aba5944422bb5f761ff2dac995e29c219"
		wantAttribution = "e196c8ac5210c1a1584dcbb021e4dc3f1f009eac67a3eafab2eb24624f0746b0"
	)
	tr := obs.NewTracer(obs.WithBuffer(1 << 20))
	attr := runGolden(t, tr)
	if tr.Dropped() != 0 {
		t.Fatalf("golden run overflowed the ring: %d events dropped", tr.Dropped())
	}
	evs := tr.Events()
	kinds := map[obs.EventKind]int{}
	eh := sha256.New()
	for i := range evs {
		ev := &evs[i]
		kinds[ev.Kind]++
		fmt.Fprintf(eh, "%d|%d|%d|%d|%d|%d|%d|%d|%q|%q\n",
			ev.At, ev.Dur, ev.Kind, ev.Node, ev.Track, ev.Line, ev.A, ev.B, ev.Name, ev.Aux)
	}
	for _, k := range []obs.EventKind{obs.EvNack, obs.EvSpan} {
		if kinds[k] == 0 {
			t.Errorf("golden run recorded no %v events", k)
		}
	}
	backoff := false
	for i := range evs {
		if evs[i].Kind == obs.EvSpan && evs[i].Name == obs.StageBackoff.String() {
			backoff = true
			break
		}
	}
	if !backoff {
		t.Error("golden run recorded no NACK back-off span")
	}
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, evs); err != nil {
		t.Fatal(err)
	}
	attrJSON, err := json.Marshal(attr)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct{ name, got, want string }{
		{"events", hex.EncodeToString(eh.Sum(nil)), wantEvents},
		{"chrome", digest(chrome.Bytes()), wantChrome},
		{"attribution", digest(attrJSON), wantAttribution},
	} {
		if d.got != d.want {
			t.Errorf("golden %s digest = %s, want %s", d.name, d.got, d.want)
		}
	}

	// Attribution alone (no ring, no sink) must aggregate identically.
	if only := runGolden(t, nil); !reflect.DeepEqual(only, attr) {
		t.Errorf("attribution-only run differs from the traced run:\n%+v\n%+v", only, attr)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runGolden runs fft at test size on a robust 4x2 HWC machine with
// attribution on, recording into tr (nil for an attribution-only run), with
// every controller armed to bounce its next two NACKable requests. It
// returns the run's attribution aggregate.
func runGolden(t *testing.T, tr *obs.Tracer) *stats.Attribution {
	t.Helper()
	cfg, err := config.Base().WithArch("HWC")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nodes, cfg.ProcsPerNode = 4, 2
	cfg.SimLimit = 2_000_000_000
	cfg = cfg.WithRobustness()
	cfg.Attribution = true
	m, err := machine.NewTraced(cfg, "fft", tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range m.CCs {
		cc.ForceNackNext(2)
	}
	w, err := workload.New("fft", workload.SizeTest, m.NProcs())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(m); err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if r.Attribution == nil || r.Attribution.Completed == 0 {
		t.Fatal("golden run aggregated no attributed transactions")
	}
	return r.Attribution
}
