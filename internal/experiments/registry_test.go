package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sweepPoint matches the sweep-size component of a metric key
// ("sweep_1000_air_bytes"): quick runs sweep smaller sizes than the
// full-size runs the guards replay, so keys compare by shape.
var sweepPoint = regexp.MustCompile(`_\d+_`)

func keyShape(key string) string { return sweepPoint.ReplaceAllString(key, "_N_") }

// TestRegistryGuardsMatchBaselines ties the registry to the committed
// baselines: every baseline names a guarded entry (and every guarded entry
// has a baseline), every guard key is in its baseline, and each guarded
// entry's quick run emits every guard key. The BENCH metric names and the
// guard rules therefore cannot drift apart.
func TestRegistryGuardsMatchBaselines(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "bench_baseline", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed baselines found")
	}
	baselined := map[string]bool{}
	for _, file := range files {
		name := strings.ToLower(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(file), "BENCH_"), ".json"))
		baselined[name] = true
		exp := Lookup(name)
		if exp == nil || len(exp.Guard) == 0 {
			t.Errorf("%s has no guarded registry entry %q", file, name)
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var base struct {
			Experiment string             `json:"experiment"`
			Seed       int64              `json:"seed"`
			Metrics    map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal(data, &base); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if base.Experiment != name || base.Seed != exp.Seed {
			t.Errorf("%s records %s seed %d, registry has %s seed %d",
				file, base.Experiment, base.Seed, name, exp.Seed)
		}
		for key := range exp.Guard {
			if _, ok := base.Metrics[key]; !ok {
				t.Errorf("%s guard rule %q is not in %s", name, key, file)
			}
		}
	}

	for i := range All {
		exp := &All[i]
		if len(exp.Guard) == 0 {
			continue
		}
		if !baselined[exp.Name] {
			t.Errorf("%s has guard rules but no committed baseline", exp.Name)
		}
		out, err := exp.Execute(io.Discard, true, exp.Seed)
		if err != nil {
			t.Fatal(err)
		}
		emitted := map[string]bool{}
		for key := range out.Metrics {
			emitted[keyShape(key)] = true
		}
		for key := range exp.Guard {
			if !emitted[keyShape(key)] {
				t.Errorf("%s quick run does not emit guarded metric %q", exp.Name, key)
			}
		}
	}
}
