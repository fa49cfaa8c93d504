package uavmw

// Baseline guards: replay the E13–E17 registry entries at full size with
// the seed recorded in testdata/bench_baseline and hold every metric in
// the entry's Guard to its tolerance (internal/experiments/registry.go
// states each rule and why). The scenarios run under virtual time, so
// "noise" is not OS jitter: the tolerances absorb reviewed shifts in event
// interleaving, while anything structural (priority inversion back,
// handover undetected, lost alarms, an allocation on the wire path) lands
// far outside them. Skipped in -short: CI's race run stays fast and a
// dedicated non-short step executes these.

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"uavmw/internal/experiments"
)

type benchBaseline struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Quick      bool               `json:"quick"`
	Metrics    map[string]float64 `json:"metrics"`
}

// checkBaseline runs the named registry entry against its committed
// baseline and returns the replayed metrics for any extra checks.
func checkBaseline(t *testing.T, name string) map[string]float64 {
	t.Helper()
	if testing.Short() {
		t.Skipf("full-size %s baseline run; executed by the dedicated CI step", name)
	}
	file := "BENCH_" + strings.ToUpper(name) + ".json"
	data, err := os.ReadFile(filepath.Join("testdata", "bench_baseline", file))
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("baseline %s does not parse: %v", file, err)
	}
	if base.Quick {
		t.Fatalf("baseline %s was recorded with -quick; guards need the full-size run", file)
	}
	exp := experiments.Lookup(name)
	if exp == nil || len(exp.Guard) == 0 {
		t.Fatalf("registry has no guarded experiment %q", name)
	}
	out, err := exp.Execute(io.Discard, false, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(exp.Guard))
	for k := range exp.Guard {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want, ok := base.Metrics[key]
		if !ok {
			t.Fatalf("baseline %s has no metric %q", file, key)
		}
		got, ok := out.Metrics[key]
		if !ok {
			t.Errorf("%s run reported no metric %q", name, key)
			continue
		}
		if tol := exp.Guard[key]; !tol.Allows(want, got) {
			t.Errorf("%s %s = %.3f, baseline %.3f (tolerance rel %.2f, floor %.3f)",
				name, key, got, want, tol.Rel, tol.AbsFloor)
		}
	}
	return out.Metrics
}

func TestE13MatchesBaseline(t *testing.T) { checkBaseline(t, "e13") }

func TestE15MatchesBaseline(t *testing.T) { checkBaseline(t, "e15") }

func TestE16MatchesBaseline(t *testing.T) {
	m := checkBaseline(t, "e16")
	// Latencies are host wall-clock: this only catches healthy deliveries
	// queueing behind a stalled socket, not scheduler noise.
	stalled, clean := m["slow_stalled_p99_ms"], m["slow_baseline_p99_ms"]
	if stalled > 2*clean && stalled > clean+5 {
		t.Errorf("healthy p99 %.2fms with stalled consumers vs %.2fms baseline (>2x)", stalled, clean)
	}
}

func TestE17MatchesBaseline(t *testing.T) {
	m := checkBaseline(t, "e17")
	// The wall-clock flood only demonstrates parallel drain when the host
	// has cores to drain on.
	if runtime.GOMAXPROCS(0) >= 8 {
		if ratio := m["scaling_ratio_4_over_1"]; ratio < 2 {
			t.Errorf("4-shard ingest ran at %.2fx the 1-shard rate, want >= 2x on a %d-core host",
				ratio, runtime.GOMAXPROCS(0))
		}
	}
}

func TestE14MatchesBaseline(t *testing.T) { checkBaseline(t, "e14") }
