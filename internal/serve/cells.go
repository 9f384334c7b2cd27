package serve

import (
	"bytes"
	"fmt"

	"ccnuma/internal/config"
	"ccnuma/internal/machine"
	"ccnuma/internal/obs"
	"ccnuma/internal/scenario"
	"ccnuma/internal/workload"
)

// Cell is one unit of serveable work: a single fully-resolved simulation,
// content-addressed by the fingerprint of its normalized scenario. A plain
// scenario submission is one cell; a sweep submission expands value-major
// into one cell per (value, arch) grid point, exactly like ccsweep.
type Cell struct {
	// Arch and Value locate the cell in its sweep grid (HasValue false for
	// a plain single-run submission).
	Arch     string
	Value    int
	HasValue bool
	// Spec is the cell's normalized scenario: machine and workload only,
	// no name, sweep, fault, or jobs section, so the fingerprint depends
	// on nothing but the experiment itself.
	Spec *scenario.Spec
	// Canon is Spec's canonical serialization and Fp its fingerprint —
	// the store key, and the key memoized hits are served under.
	Canon []byte
	Fp    string
	// charged records that this cell holds one unit of the server's
	// admission queue, released when the cell finishes or is abandoned.
	charged bool
}

// normalizeCell strips everything that does not shape the simulation from
// a resolved machine+workload pair, so that the same experiment submitted
// via different documents (spelled-out defaults, different names, sweep
// grids that overlap) content-addresses identically.
func normalizeCell(cfg config.Config, w scenario.Workload) (*Cell, error) {
	cs := &scenario.Spec{
		SchemaName: scenario.Schema,
		Machine:    cfg,
		Workload:   w,
	}
	canon, err := cs.Canonical()
	if err != nil {
		return nil, err
	}
	fp, err := cs.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Cell{Spec: cs, Canon: canon, Fp: fp}, nil
}

// ExpandCells resolves a submitted scenario into its cells. Fault
// campaigns are not serveable (their artifacts aggregate a whole seeded
// campaign, not one memoizable run) and are rejected at validation.
func ExpandCells(spec *scenario.Spec) ([]*Cell, error) {
	if spec.Faults != nil {
		return nil, fmt.Errorf("serve: fault campaigns are not serveable; submit them to ccchaos")
	}
	if spec.Sweep == nil {
		c, err := normalizeCell(spec.Machine, spec.Workload)
		if err != nil {
			return nil, err
		}
		return []*Cell{c}, nil
	}
	sw := spec.Sweep
	var cells []*Cell
	for _, v := range sw.Values {
		for _, arch := range sw.Archs {
			cfg, err := spec.Machine.WithArch(arch)
			if err != nil {
				return nil, err
			}
			if err := scenario.ApplySweepValue(&cfg, sw.Param, v); err != nil {
				return nil, err
			}
			c, err := normalizeCell(cfg, spec.Workload)
			if err != nil {
				return nil, fmt.Errorf("serve: cell value=%d arch=%s: %w", v, arch, err)
			}
			c.Arch, c.Value, c.HasValue = arch, v, true
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// computeCell runs one cell's simulation and serializes its ccnuma-run/v1
// artifact. The artifact embeds the cell's canonical scenario, so `ccsim
// -replay` on served bytes reproduces the run; it never includes host
// timing, so the bytes are deterministic — the property the kill-torture
// harness pins by comparing resumed sweeps against uninterrupted ones. A
// panic anywhere in the simulation (the protocol's fail-stop included) is
// captured and classified, never propagated into the serving loop.
func computeCell(c *Cell, sampler *obs.Sampler) (payload []byte, fail *obs.FailureDoc) {
	defer func() {
		if p := recover(); p != nil {
			payload, fail = nil, machine.ClassifyFailure(p)
		}
	}()
	cfg := c.Spec.Machine
	app := c.Spec.Workload.App
	size, err := c.Spec.Size()
	if err != nil {
		return nil, machine.ClassifyFailure(err)
	}
	m, err := machine.New(cfg, app)
	if err != nil {
		return nil, machine.ClassifyFailure(err)
	}
	if sampler != nil {
		m.AttachSampler(sampler)
	}
	r, err := workload.Run(m, app, size, c.Spec.Workload.Seed)
	if err != nil {
		return nil, machine.ClassifyFailure(err)
	}

	art := obs.NewArtifact("ccserved", c.Spec.Workload.Size, &cfg, r)
	art.Seed = c.Spec.Workload.Seed
	art.Scenario = c.Canon
	art.ScenarioFingerprint = c.Fp
	if cfg.Robust() {
		art.Recovery = obs.NewRecoveryDoc(&cfg, r, nil)
	}
	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		return nil, machine.ClassifyFailure(err)
	}
	return buf.Bytes(), nil
}
