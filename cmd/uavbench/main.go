// Command uavbench runs the experiments of the registry in
// internal/experiments (experiments.All): the paper's comparative claims
// (E1–E5, E7, E8), the end-to-end Figure 3 mission (E9), and the
// middleware-plane experiments (E3, E11–E17). Run it with no flags for the
// full sweep, or select experiments:
//
//	uavbench -run e2,e3 -quick
//
// The simulation-backed experiments (E3, E11–E17) run on a virtual
// discrete-event clock: minutes of scenario time execute in wall
// milliseconds with identical protocol semantics, deterministically for a
// given seed. Each experiment prints its table and writes a
// BENCH_<NAME>.json record (seed, virtual and wall durations, flat
// headline metrics) under -bench-dir, plus a METRICS_<NAME>.txt snapshot
// of the observability registry for the instrumented scenarios.
//
// Absolute numbers depend on the host for the wall-clock experiments;
// the recorded results are about shape: who wins, by what factor, and
// where crossovers sit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"uavmw/internal/experiments"
)

// benchRecord is the BENCH_<NAME>.json trajectory document.
type benchRecord struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed,omitempty"`
	Quick      bool               `json:"quick"`
	Virtual    bool               `json:"virtual"`
	VirtualMS  float64            `json:"virtual_ms,omitempty"`
	WallMS     float64            `json:"wall_ms"`
	Speedup    float64            `json:"speedup,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	names := make([]string, len(experiments.All))
	for i, exp := range experiments.All {
		names[i] = exp.Name
	}
	var (
		runFlag    = flag.String("run", "all", "comma-separated experiments: "+strings.Join(names, ",")+" or all")
		quick      = flag.Bool("quick", false, "reduced iteration counts for smoke runs")
		benchDir   = flag.String("bench-dir", ".", "directory for BENCH_<NAME>.json records")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the selected experiments) to this file")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("uavbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("uavbench: -cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("uavbench: -memprofile: %v", err)
			}
			defer func() { _ = f.Close() }()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("uavbench: -memprofile: %v", err)
			}
		}()
	}
	selected := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		selected[strings.TrimSpace(strings.ToLower(name))] = true
	}
	log.SetFlags(0)
	for i := range experiments.All {
		exp := &experiments.All[i]
		if !selected["all"] && !selected[exp.Name] {
			continue
		}
		out, err := exp.Execute(os.Stdout, *quick, exp.Seed)
		if err != nil {
			log.Fatalf("uavbench %v", err)
		}
		rec := benchRecord{
			Experiment: exp.Name,
			Seed:       exp.Seed,
			Quick:      *quick,
			Virtual:    exp.Virtual,
			VirtualMS:  float64(out.Elapsed.Virtual) / float64(time.Millisecond),
			WallMS:     float64(out.Elapsed.Wall) / float64(time.Millisecond),
			Speedup:    out.Elapsed.Speedup(),
			Metrics:    out.Metrics,
		}
		if rec.Virtual {
			fmt.Printf("[%s: %.1fs of scenario time in %.0fms of wall time, %.0fx]\n",
				exp.Name, rec.VirtualMS/1000, rec.WallMS, rec.Speedup)
		}
		if err := writeBench(*benchDir, rec); err != nil {
			log.Fatalf("uavbench %s: %v", exp.Name, err)
		}
		if out.Snapshot != "" {
			if err := writeMetrics(*benchDir, exp.Name, out.Snapshot); err != nil {
				log.Fatalf("uavbench %s: %v", exp.Name, err)
			}
		}
	}
}

// writeMetrics lands an experiment node's observability snapshot
// (metrics.Snapshot.Text) next to its BENCH record, so each CI run ships
// the full counter/gauge state that produced the headline numbers.
func writeMetrics(dir, experiment, snapshot string) error {
	name := filepath.Join(dir, "METRICS_"+strings.ToUpper(experiment)+".txt")
	return os.WriteFile(name, []byte(snapshot), 0o644)
}

func writeBench(dir string, rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, "BENCH_"+strings.ToUpper(rec.Experiment)+".json")
	return os.WriteFile(name, append(data, '\n'), 0o644)
}
