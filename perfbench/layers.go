package main

import (
	"uavmw/internal/qos"

	"uavmw/perfbench/harness"
)

// profiled lists the middleware packages whose CPU-profile share the
// traced run reports, plus the two buckets outside the middleware.
var profiled = []string{
	"clock", "bufpool", "link", "transport", "ingress", "protocol", "egress",
	"encoding", "presentation", "scheduler", "core", "naming", "variables",
	"events", "rpc", "filetransfer", "gateway", "metrics", "netsim",
	"harness", "runtime",
}

// plainHalf is what the unwrapped half of a traced run measured: plain
// containers, so the CPU profile and the registry see the middleware as an
// untraced run runs it.
type plainHalf struct {
	ops      int64 // operations completed
	cost     *cost
	win      harness.Window
	shares   map[string]float64
	samples  int64
	depthMax int64
	genLag   *harness.Hist // generator lateness, ns
}

// tracedHalf is what the wrapped half measured.
type tracedHalf struct {
	ops  int64
	cost *cost
	tr   *harness.Tracer
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pct returns a histogram percentile scaled by div, or 0 when the sample
// is too small to support it.
func pct(h *harness.Hist, p, div float64) float64 {
	v, err := h.Percentile(p)
	if err != nil {
		return 0
	}
	return float64(v) / div
}

// layerMetrics fills the per-layer figures every workload shares. Figures a
// workload does not exercise read 0.
func layerMetrics(out map[string]float64, pl plainHalf, th tracedHalf) {
	ops := float64(pl.ops)
	w := pl.win

	for _, pkg := range profiled {
		out[pkg+".cpu_share"] = pl.shares[pkg]
	}
	out["profile.samples"] = float64(pl.samples)
	// Per-layer figures are not scaled to the nominal host; this reading,
	// taken right after the measurement, lets them be compared across runs.
	out["host.ref_ms"] = float64(harness.HostRef()) / 1e6
	out["gen.ops"] = ops

	out["transport.packets_per_op"] = ratio(w.Delta("transport", "packets_wire"), ops)
	out["transport.drops"] = w.Delta("transport", "packets_dropped")
	out["ingress.frames_per_drain"] = w.HistMean("ingress", "batch_frames")
	out["ingress.queue_depth_max"] = float64(pl.depthMax)
	frames, drops := w.Delta("ingress", "frames"), w.Delta("ingress", "drops")
	out["ingress.drops"] = drops
	out["ingress.delivered_ratio"] = ratio(frames, frames+drops)
	out["arq.retransmit_ratio"] = w.Ratio("arq", "retransmits", "arq", "sent")
	out["arq.failed"] = w.Delta("arq", "failed")
	out["egress.frames_per_datagram"] = w.Ratio("egress", "sent", "egress", "datagrams")
	out["egress.dropped"] = w.Delta("egress", "dropped")
	out["egress.bulk_waits"] = w.Delta("egress", "bulk_waits")
	var disco float64
	for _, n := range []string{"heartbeats_sent", "deltas_sent", "full_announces_sent", "sync_requests_sent", "sync_chunks_sent"} {
		disco += w.Delta("discovery", n)
	}
	out["discovery.frames_share"] = ratio(disco, w.Delta("transport", "packets_wire"))
	out["events.repairs"] = w.Delta("events", "repairs")
	out["events.subscriber_failures"] = w.Delta("events", "subscriber_failures")
	out["rpc.errors"] = w.Delta("rpc", "errors")
	out["rpc.hedges"] = w.Delta("rpc", "hedges")
	out["gateway.frames_out"] = w.Delta("gateway", "frames_out")
	out["gateway.queue_drop_oldest"] = w.Delta("gateway", "queue_drop_oldest")
	out["gateway.evictions"] = w.Delta("gateway", "evictions")

	rt0, rt1 := pl.cost.rt0, pl.cost.rt1
	out["runtime.mallocs_per_op"] = ratio(float64(rt1.Mallocs-rt0.Mallocs), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(rt1.AllocBytes-rt0.AllocBytes), ops)
	out["runtime.gc_cycles"] = float64(rt1.GCCycles - rt0.GCCycles)
	if p99, err := harness.PauseP99(rt0, rt1); err == nil {
		out["runtime.gc_pause_p99_us"] = p99
	}
	if pl.genLag != nil {
		out["gen.lag_p99_us"] = pct(pl.genLag, 0.99, 1e3)
	}

	tr := th.tr
	out["transport.send_ns_p50"] = pct(tr.Hist(harness.SpanSend), 0.5, 1)
	out["ingress.handoff_ns_p50"] = pct(tr.Hist(harness.SpanDeliver), 0.5, 1)
	out["encoding.marshal_ns_p50"] = pct(tr.Hist(harness.SpanMarshal), 0.5, 1)
	out["encoding.unmarshal_ns_p50"] = pct(tr.Hist(harness.SpanUnmarshal), 0.5, 1)
	out["encoding.calls_per_op"] = ratio(float64(tr.Hist(harness.SpanMarshal).Count()+tr.Hist(harness.SpanUnmarshal).Count()), float64(th.ops))
	for _, c := range []qos.Priority{qos.PriorityCritical, qos.PriorityNormal, qos.PriorityBulk} {
		out["scheduler.wait_us_p50."+c.String()] = pct(tr.ClassWait(c), 0.5, 1e3)
		out["scheduler.wait_us_p99."+c.String()] = pct(tr.ClassWait(c), 0.99, 1e3)
	}
	out["scheduler.run_us_p50"] = pct(tr.Hist(harness.SpanRun), 0.5, 1e3)
	out["scheduler.rejected"] = float64(tr.Rejected())
	out["gateway.write_ns_p50"] = pct(tr.Hist(harness.SpanGatewayWrite), 0.5, 1)
	self := harness.SelfTimeP50(tr.Spans())
	for k := harness.SpanKind(0); k < harness.NumSpanKinds; k++ {
		if k == harness.SpanGatewayWrite {
			continue // carries no operation
		}
		out[k.String()+".self_us_p50"] = self[k]
	}
	out["trace.spans_untagged"] = float64(tr.UntaggedCount())
	out["trace.overhead_cpu_us_per_op"] = th.cost.perOp(th.ops) - pl.cost.perOp(pl.ops)
}
