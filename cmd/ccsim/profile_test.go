package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/workload"
)

// TestProfilesParse runs simulations between startProfiles and its stop
// function and checks that both files are gzipped pprof protobufs with
// sample types and at least one sample.
func TestProfilesParse(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate for long enough that the 100 Hz CPU profiler takes samples.
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		m, err := machine.New(config.Base(), "fft")
		if err != nil {
			t.Fatal(err)
		}
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
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, sampleType string
	}{{cpuPath, "cpu"}, {memPath, "alloc_objects"}} {
		p, err := readProfile(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if p.sampleTypes == 0 || p.samples == 0 {
			t.Fatalf("%s: %d sample types, %d samples", tc.path, p.sampleTypes, p.samples)
		}
		if !p.strings[tc.sampleType] {
			t.Fatalf("%s: no %q sample type in the string table", tc.path, tc.sampleType)
		}
	}
}

// profileSummary counts the top-level fields of a pprof Profile message
// (github.com/google/pprof/proto/profile.proto) that the test checks.
type profileSummary struct {
	sampleTypes, samples int
	strings              map[string]bool
}

// readProfile decodes a gzipped pprof profile far enough to count its
// sample types (field 1) and samples (field 2) and read its string table
// (field 6); any malformed wire data is an error.
func readProfile(path string) (profileSummary, error) {
	s := profileSummary{strings: map[string]bool{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return s, err
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return s, err
	}
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return s, fmt.Errorf("bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return s, fmt.Errorf("bad varint in field %d", key>>3)
			}
			b = b[n:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return s, fmt.Errorf("bad length in field %d", key>>3)
			}
			v := b[n : n+int(l)]
			b = b[n+int(l):]
			switch key >> 3 {
			case 1:
				s.sampleTypes++
			case 2:
				s.samples++
			case 6:
				s.strings[string(v)] = true
			}
		default:
			return s, fmt.Errorf("unexpected wire type %d in field %d", key&7, key>>3)
		}
	}
	return s, nil
}
