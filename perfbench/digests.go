package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// digestTable maps a kernel configuration (simWorkload.digestKey) and a
// seed to the digest of that run's simulated results.
type digestTable map[string]map[string]string

func (t digestTable) lookup(key string, seed int64) (string, bool) {
	d, ok := t[key][strconv.FormatInt(seed, 10)]
	return d, ok
}

//go:embed digests.json
var digestsJSON []byte

// recorded is the table every full-length run is checked against.
var recorded = func() digestTable {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return t
}()

// recordDigests runs seeds 0..n-1 of every kernel of the serial simulation
// workloads and prints the resulting table in digests.json form. Kernels
// whose inputs ignore seeds are run and recorded once, under seed 0.
func recordDigests(n int, out, log io.Writer) error {
	t := digestTable{}
	for _, w := range []simWorkload{missHeavy, hitHeavy} {
		cfg, err := w.config()
		if err != nil {
			return err
		}
		for _, k := range w.kernels {
			key := w.digestKey(k)
			t[key] = map[string]string{}
			for seed := int64(0); seed < int64(n); seed++ {
				c := w.runCell(cfg, k, seed, false)
				if c.err != nil {
					return fmt.Errorf("%s seed %d: %w", key, seed, c.err)
				}
				t[key][strconv.FormatInt(c.seedKey, 10)] = c.digest
				fmt.Fprintf(log, "%s seed %d: %s\n", key, seed, c.digest)
				if c.seedKey != seed {
					break
				}
			}
		}
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
