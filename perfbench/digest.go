package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// goldenJSON pins the digests of the recorded seeds, so a change that
// shifts any simulated output on them reads as incorrect.
//
//go:embed golden.json
var goldenJSON []byte

// golden is the recorded-seed file: the default workload seed, one seed
// held out while the benchmark was tuned, and the digests both produce.
type golden struct {
	DefaultSeed int64             `json:"default_seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Digests     map[string]string `json:"digests"`
}

func digestKey(workload string, seed int64) string {
	return fmt.Sprintf("%s/%d", workload, seed)
}

// checkDigest compares the run's digest with every earlier run of the
// same workload and seed in this checkout, traced or not, and with the
// golden digest when the seed is a recorded one. Each disagreement is a
// failed operation.
func checkDigest(e *env, o *outcome) {
	key := digestKey(e.name, e.seed)
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		o.fail("golden.json: %v", err)
	} else if want, ok := g.Digests[key]; ok && want != o.digest {
		o.fail("digest %s differs from the golden %s", o.digest, want)
	}
	path := filepath.Join(e.out, "digests.json")
	seen := map[string]string{}
	if err := readJSON(path, &seen); err != nil {
		o.fail("read %s: %v", path, err)
		return
	}
	if prev, ok := seen[key]; ok {
		if prev != o.digest {
			o.fail("digest %s differs from an earlier run's %s", o.digest, prev)
		}
		return
	}
	seen[key] = o.digest
	if err := writeJSON(path, seen); err != nil {
		o.fail("write %s: %v", path, err)
	}
}

// recordWall keeps the latest untraced wall_s of each workload and seed,
// for the where-the-time-goes table to set beside the traced run's.
func recordWall(e *env, wall float64) error {
	path := filepath.Join(e.out, "walls.json")
	walls := map[string]float64{}
	if err := readJSON(path, &walls); err != nil {
		return err
	}
	walls[digestKey(e.name, e.seed)] = wall
	return writeJSON(path, walls)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
