// Command perfbench is the repository benchmark: it drives the middleware
// from outside, through the public APIs of its containers and primitives,
// and prints one JSON line of end-to-end metrics (or, with --trace 1,
// per-layer metrics). See README.md for the workloads and the metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload telemetry_fanin --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"uavmw/perfbench/harness"
)

// An untraced wall-clock run builds its deployment setupReps times, one
// after another, and measures the last wallReps of them for an equal share
// of the run each; setup_s is the median over all builds, and the other
// metrics pool the measured deployments' windows. Fresh deployments keep
// one deployment's scheduling luck from deciding the run.
const (
	setupReps = 101
	wallReps  = 4
)

// hostRefs brackets each measured stretch of a run with readings of the
// host-speed reference task (harness.HostRef).
type hostRefs struct {
	last time.Duration
	all  []float64
}

func newHostRefs() *hostRefs {
	r := harness.HostRef()
	return &hostRefs{last: r, all: []float64{float64(r)}}
}

// next takes a reading after a measured stretch and returns the stretch's
// scale, from the readings on either side of it.
func (h *hostRefs) next() float64 {
	r := harness.HostRef()
	k := harness.Scale((h.last + r) / 2)
	h.last = r
	h.all = append(h.all, float64(r))
	return k
}

// run is the scale for figures taken across the whole run (set-up times):
// that of the median reading.
func (h *hostRefs) run() float64 {
	return harness.Scale(time.Duration(harness.Median(append([]float64(nil), h.all...))))
}

// scaled multiplies every value by k (durations and CPU times; pass 1/k
// for rates).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// measureReps calls rep setupReps times, telling it whether this build is
// measured, and returns the set-up times it reports.
func measureReps(rep func(measured bool) (setup float64, err error)) ([]float64, error) {
	var setups []float64
	for k := 0; k < setupReps; k++ {
		took, err := rep(k >= setupReps-wallReps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	return setups, nil
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the middleware sees, reported by
// every untraced run of every workload.
var endToEnd = []metricDef{
	{"latency_p50_us", "us"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, pkg := range profiled {
		defs = append(defs, metricDef{pkg + ".cpu_share", "share"})
	}
	defs = append(defs,
		metricDef{"latency_p99_us", "us"},
		metricDef{"profile.samples", "count"},
		metricDef{"host.ref_ms", "ms"},
		metricDef{"gen.ops", "count"},
		metricDef{"gen.lag_p99_us", "us"},
		metricDef{"gen.due_latency_p99_us", "us"},
		metricDef{"transport.send_ns_p50", "ns"},
		metricDef{"transport.packets_per_op", "count"},
		metricDef{"transport.drops", "count"},
		metricDef{"ingress.handoff_ns_p50", "ns"},
		metricDef{"ingress.frames_per_drain", "count"},
		metricDef{"ingress.queue_depth_max", "count"},
		metricDef{"ingress.drops", "count"},
		metricDef{"ingress.delivered_ratio", "ratio"},
		metricDef{"arq.retransmit_ratio", "ratio"},
		metricDef{"arq.failed", "count"},
		metricDef{"egress.frames_per_datagram", "count"},
		metricDef{"egress.dropped", "count"},
		metricDef{"egress.bulk_waits", "count"},
		metricDef{"encoding.marshal_ns_p50", "ns"},
		metricDef{"encoding.unmarshal_ns_p50", "ns"},
		metricDef{"encoding.calls_per_op", "count"},
		metricDef{"scheduler.wait_us_p50.critical", "us"},
		metricDef{"scheduler.wait_us_p99.critical", "us"},
		metricDef{"scheduler.wait_us_p50.normal", "us"},
		metricDef{"scheduler.wait_us_p99.normal", "us"},
		metricDef{"scheduler.wait_us_p50.bulk", "us"},
		metricDef{"scheduler.wait_us_p99.bulk", "us"},
		metricDef{"scheduler.run_us_p50", "us"},
		metricDef{"scheduler.rejected", "count"},
		metricDef{"discovery.frames_share", "share"},
		metricDef{"variables.publish_ns_p50", "ns"},
		metricDef{"variables.delivered_ratio", "ratio"},
		metricDef{"events.publish_us_p50", "us"},
		metricDef{"events.alarm_p50_us", "us"},
		metricDef{"events.alarm_p99_us", "us"},
		metricDef{"events.repairs", "count"},
		metricDef{"events.subscriber_failures", "count"},
		metricDef{"rpc.errors", "count"},
		metricDef{"rpc.hedges", "count"},
		metricDef{"filetransfer.bulk_s", "s"},
		metricDef{"filetransfer.wire_overhead", "ratio"},
		metricDef{"clock.sim_speedup", "x"},
		metricDef{"gateway.frames_out", "count"},
		metricDef{"gateway.queue_drop_oldest", "count"},
		metricDef{"gateway.evictions", "count"},
		metricDef{"gateway.write_ns_p50", "ns"},
		metricDef{"runtime.mallocs_per_op", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_p99_us", "us"},
		metricDef{"trace.overhead_cpu_us_per_op", "us"},
		metricDef{"trace.spans_untagged", "count"},
	)
	for k := harness.SpanKind(0); k < harness.NumSpanKinds; k++ {
		if k != harness.SpanGatewayWrite {
			defs = append(defs, metricDef{k.String() + ".self_us_p50", "us"})
		}
	}
	return defs
}()

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

var workloads = map[string]func(options) (*result, error){
	"telemetry_fanin": runFanin,
	"command_rpc":     runCommand,
	"mission_sim":     runMission,
}

func main() {
	var o options
	var secs, trace int
	flag.StringVar(&o.workload, "workload", "", "telemetry_fanin, command_rpc or mission_sim")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: payloads, topic order and simulated network draws derive from it")
	flag.IntVar(&secs, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: per-layer traced run instead of end-to-end metrics")
	flag.Parse()
	o.seconds, o.trace = time.Duration(secs)*time.Second, trace == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, secs, trace)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, secs, trace)
	line, err := res.json(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result accumulates one run's outcome.
type result struct {
	attempted, failed int64
	errs              []error
	values            map[string]float64 // end-to-end
	layers            map[string]float64 // per-layer
}

func newResult() *result {
	return &result{values: make(map[string]float64), layers: make(map[string]float64)}
}

// account adds operations: attempted, delivered intact, and duplicate
// deliveries. Every attempted operation not delivered intact, and every
// duplicate, is a failure; errs are harness-detected faults (a stalled
// loop, a corrupted file) that make the run incorrect.
func (r *result) account(attempted, delivered, dups int64, errs ...error) {
	r.attempted += attempted
	if attempted > delivered {
		r.failed += attempted - delivered
	}
	r.failed += dups
	for _, err := range errs {
		if err != nil {
			r.errs = append(r.errs, err)
		}
	}
}

// latencyChunk is how many consecutive operations a wall-clock latency
// percentile is taken over; the reported figure is the median over chunks,
// so a few stretches the host stalled do not decide it.
const latencyChunk = 1000

// median50 returns the median latency of lat taken per chunk of chunk
// operations in measurement order, then over chunks. A sample too small to
// support it makes the run incorrect rather than report a thin figure.
func (r *result) median50(lat []float64, chunk int) float64 {
	p50, err := harness.ChunkPercentile(lat, chunk, 0.50)
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("latency from %d samples: %w", len(lat), err))
	}
	return p50
}

// e2e records the end-to-end metrics.
func (r *result) e2e(p50, throughput, cpuPerOp, heapMB, setup float64) {
	r.values["latency_p50_us"] = finite(p50)
	r.values["throughput_per_s"] = throughput
	r.values["cpu_us_per_op"] = cpuPerOp
	r.values["heap_peak_mb"] = heapMB
	r.values["setup_s"] = setup
}

// tail records the p99 latency among the per-layer figures, chunked like
// the end-to-end median. It is not an end-to-end metric: on a shared host
// the wall-clock p99 of telemetry_fanin follows the host's stalls.
func (r *result) tail(lat []float64, chunk int) {
	if p99, err := harness.ChunkPercentile(lat, chunk, 0.99); err == nil {
		r.layers["latency_p99_us"] = finite(p99)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// json renders the result line: every end-to-end metric, or with trace
// every per-layer metric.
func (r *result) json(trace bool) ([]byte, error) {
	defs, vals := endToEnd, r.values
	if trace {
		defs, vals = perLayer, r.layers
	}
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{
		Correct:   r.failed == 0 && len(r.errs) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed++
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !trace {
			missing = append(missing, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: finite(v), Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(out)
}

// dumpTrace writes the traced run's spans next to the build, for reading
// after the run.
func (r *result) dumpTrace(o options, tr *harness.Tracer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))
	fh, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tr.Dump(fh); err != nil {
		_ = fh.Close()
		return err
	}
	return fh.Close()
}
