package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/flightsim"
	"uavmw/internal/metrics"
	"uavmw/internal/qos"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

// Tolerance is one baseline guard rule: a replayed value passes when it
// lies within max(|baseline|·Rel, AbsFloor) of the committed baseline.
// The zero Tolerance demands an exact match.
type Tolerance struct {
	Rel, AbsFloor float64
}

// Allows reports whether got is within t of want.
func (t Tolerance) Allows(want, got float64) bool {
	return math.Abs(got-want) <= math.Max(math.Abs(want)*t.Rel, t.AbsFloor)
}

// exact pins a count the deterministic virtual run must reproduce.
var exact = Tolerance{}

// RunFunc executes one experiment — at full size, or at smoke size when
// quick — prints its table to w, and returns flat metrics plus the text
// snapshot of the harness node's metrics registry ("" when the harness
// exports none). clk is a fresh virtual clock for Virtual entries and nil
// (wall clock) otherwise.
type RunFunc func(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error)

// Experiment is one registry entry: everything uavbench, the baseline
// guards and the root benchmark need to know about an experiment.
type Experiment struct {
	Name    string // uavbench -run name; BENCH_<NAME>.json / METRICS_<NAME>.txt
	Title   string
	Seed    int64
	Virtual bool // runs on a discrete-event clock; false: the wall clock
	Run     RunFunc
	// Guard maps each metric pinned against the committed
	// testdata/bench_baseline/BENCH_<NAME>.json to its tolerance. Only
	// experiments with a committed baseline have one.
	Guard map[string]Tolerance
}

// Outcome is one executed run of an Experiment.
type Outcome struct {
	Metrics  map[string]float64
	Snapshot string
	Elapsed  Elapsed // Elapsed.Virtual stays zero for wall-clock entries
}

// Execute prints e's title to w and runs it once on its own clock: a
// fresh virtual clock when e.Virtual, the wall clock otherwise.
func (e *Experiment) Execute(w io.Writer, quick bool, seed int64) (Outcome, error) {
	fmt.Fprintf(w, "\n=== %s ===\n", e.Title)
	var out Outcome
	var err error
	if e.Virtual {
		out.Elapsed, err = RunVirtual(func(clk clock.Clock) error {
			var rerr error
			out.Metrics, out.Snapshot, rerr = e.Run(w, clk, quick, seed)
			return rerr
		})
	} else {
		start := time.Now()
		out.Metrics, out.Snapshot, err = e.Run(w, nil, quick, seed)
		out.Elapsed.Wall = time.Since(start)
	}
	if err != nil {
		return Outcome{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	return out, nil
}

// Lookup returns the registry entry called name, or nil.
func Lookup(name string) *Experiment {
	for i := range All {
		if All[i].Name == name {
			return &All[i]
		}
	}
	return nil
}

// All is the experiment registry, in run order: the paper's comparative
// claims (E1–E5, E7, E8), the Figure 3 mission (E9) and the middleware
// planes (E3, E11–E17). Each experiment's parameters live only in its
// run function here.
var All = []Experiment{
	{Name: "e1", Title: "E1 — event vs remote-invocation notification latency (§4.3 claim)", Run: runE1},
	{Name: "e2", Title: "E2 — per-message ARQ vs TCP-like in-order stream under loss (§4.2 claim)", Seed: 42, Run: runE2},
	{Name: "e3", Title: "E3 — event fan-out wire cost: group-addressed multicast vs unicast ARQ (§4.1, §4.2)", Seed: 4, Virtual: true, Run: runE3},
	{Name: "e4", Title: "E4 — MFTP file distribution vs chunked events (§4.4 claim)", Seed: 7, Run: runE4},
	{Name: "e5", Title: "E5 — same-container bypass vs network path (§4.4, F2)", Run: runE5},
	{Name: "e7", Title: "E7 — failover redirection latency after provider death (§4.3)", Run: runE7},
	{Name: "e8", Title: "E8 — fixed-priority scheduler queue latency under load (§6)", Run: runE8},
	{Name: "e9", Title: "E9 — Figure 3 mission end to end (§5)", Run: runE9},
	{Name: "e11", Title: "E11 — concurrent RPC vs a stalled pinned provider: hedged failover (§4.3)", Seed: 11, Virtual: true, Run: runE11},
	{Name: "e12", Title: "E12 — incremental discovery: steady-state wire cost and convergence (§3 at scale)", Seed: 12, Virtual: true, Run: runE12},
	{
		Name: "e13", Title: "E13 — priority-aware egress: critical alarms vs bulk transfer on a 1 Mb/s link",
		Seed: 13, Virtual: true, Run: runE13,
		// Virtual-time latencies shift only when event interleaving
		// shifts; 25% absorbs a reordered timer without passing a
		// priority inversion (flood p99 is ~140x shaped p99).
		Guard: map[string]Tolerance{
			"unloaded_p99_us":    {0.25, 500},
			"flood_p99_us":       {0.25, 500},
			"shaped_p99_us":      {0.25, 500},
			"shaped_goodput_bps": {0.10, 0},
			"flood_lost":         exact,
			"shaped_lost":        exact,
			"shaped_dropped":     exact,
		},
	},
	{
		Name: "e14", Title: "E14 — multi-bearer link plane: WiFi→radio handover under blackout",
		Seed: 14, Virtual: true, Run: runE14,
		Guard: map[string]Tolerance{
			"multi_p99_us":       {0.25, 500},
			"handover_detect_ms": {0.25, 10},
			"recovered_bps":      {0.10, 0},
			"transfer_ms":        {0.10, 0},
			// The wire split drifts a little when retransmission timing
			// moves; 10% still catches traffic on the wrong bearer.
			"wifi_bytes":  {0.10, 0},
			"radio_bytes": {0.10, 0},
			"multi_lost":  exact,
			"multi_sent":  exact,
			// The single-bearer arm's loss count rides ARQ retry phase
			// against the blackout edges, and the harness's
			// clock.Blocking waits advance virtual time by
			// wall-clock-dependent amounts (71 idle, 77–83 under load),
			// so only this lossy arm gets slack.
			"single_lost": {0.25, 8},
			"single_sent": exact,
		},
	},
	{
		Name: "e15", Title: "E15 — zero-allocation wire path: pooled encode/decode and batch syscalls",
		Seed: 15, Virtual: true, Run: runE15,
		Guard: e15Guard(),
	},
	{
		Name: "e16", Title: "E16 — ground gateway: encode-once fan-out to external clients (shared subs, LVC)",
		Seed: 16, Virtual: true, Run: runE16,
		Guard: e16Guard(),
	},
	{
		Name: "e17", Title: "E17 — sharded ingress: multi-sender ingest scaling and receive-path allocations",
		Seed: 17, Virtual: true, Run: runE17,
		// Allocs per routed frame are exact zeros (AllocsPerRun through
		// the full receive path); the tiny floor absorbs float
		// formatting, not an allocation. The scaling sweep is wall-clock
		// and is not pinned here.
		Guard: map[string]Tolerance{
			"alloc_owned_per_frame": {0, 0.02},
			"alloc_copy_per_frame":  {0, 0.02},
			"alloc_acked_per_frame": {0, 0.02},
			"netsim_senders":        exact,
			"netsim_samples":        exact,
			"netsim_delivered":      exact,
			"netsim_wire_packets":   exact,
			"netsim_wire_bytes":     exact,
		},
	},
}

func e15Guard() map[string]Tolerance {
	g := map[string]Tolerance{
		"netsim_samples":      exact,
		"netsim_delivered":    exact,
		"netsim_wire_packets": exact,
		"netsim_wire_bytes":   exact,
	}
	for _, name := range []string{"small", "mtu", "batch"} {
		p := "codec_" + name + "_"
		// Alloc counts are exact; the floor only absorbs float
		// formatting (one alloc on the batch point moves the per-frame
		// figure by 1/16 = 0.0625).
		g[p+"pooled_allocs"] = Tolerance{0, 0.02}
		g[p+"legacy_allocs"] = Tolerance{0, 0.02}
		g[p+"wire_b"] = exact
		// Rates are host wall-clock: the wide band only catches a wire
		// path that got drastically slower (an extra copy or re-encode).
		g[p+"pooled_fps"] = Tolerance{0.75, 0}
		g[p+"legacy_fps"] = Tolerance{0.75, 0}
	}
	return g
}

func e16Guard() map[string]Tolerance {
	g := map[string]Tolerance{
		// The tentpole claim: 100x the audience, same air link.
		"air_flatness_ratio": {0, 0.5},
		// Absolute allocs/sample absorb ±1 background allocation; the
		// marginal per-client figure is the contract and pins at zero.
		"alloc_small_per_sample":    {0, 1},
		"alloc_big_per_sample":      {0, 1},
		"alloc_per_client_marginal": {0, 0.01},
		// Every deliberately stalled consumer is evicted, none of the
		// healthy.
		"slow_evicted": exact,
		"slow_stalled": exact,
		"slow_healthy": exact,
	}
	for _, clients := range []int{1000, 10_000, 100_000} {
		p := fmt.Sprintf("sweep_%d_", clients)
		// Every client hears every sample or the shared-subscription
		// plumbing broke.
		g[p+"clients"] = exact
		g[p+"samples"] = exact
		g[p+"delivered"] = exact
		// Air cost may shift by a heartbeat when warm-up moves the
		// discovery phase, never by a per-client resubscription.
		g[p+"air_bytes"] = Tolerance{0.25, 200}
		g[p+"air_bytes_per_sample"] = Tolerance{0.25, 10}
		// Pushed bytes drift only with seq-number digit width; a
		// re-encode per client would multiply this.
		g[p+"client_bytes"] = Tolerance{0.05, 0}
	}
	return g
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runE1(w io.Writer, _ clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	n := 2000
	if quick {
		n = 200
	}
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %10s\n",
		"payload", "event p50", "event p99", "rpc p50", "rpc p99", "rpc/event")
	m := map[string]float64{}
	for _, size := range []int{16, 64, 256, 1024} {
		res, err := RunE1(n, size)
		if err != nil {
			return nil, "", err
		}
		ratio := float64(res.RPC.Percentile(50)) / float64(res.Event.Percentile(50))
		fmt.Fprintf(w, "%-10d %12v %12v %12v %12v %9.2fx\n",
			size,
			res.Event.Percentile(50).Round(time.Microsecond),
			res.Event.Percentile(99).Round(time.Microsecond),
			res.RPC.Percentile(50).Round(time.Microsecond),
			res.RPC.Percentile(99).Round(time.Microsecond),
			ratio)
		p := fmt.Sprintf("payload_%d_", size)
		m[p+"event_p50_us"] = us(res.Event.Percentile(50))
		m[p+"rpc_p50_us"] = us(res.RPC.Percentile(50))
		m[p+"rpc_over_event"] = ratio
	}
	return m, "", nil
}

func runE2(w io.Writer, _ clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	n := 400
	if quick {
		n = 100
	}
	fmt.Fprintf(w, "%-8s %12s %12s %12s %12s %12s %12s\n",
		"loss", "arq total", "gbn total", "arq p99", "gbn p99", "arq retx", "gbn retx")
	m := map[string]float64{}
	for _, loss := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		res, err := RunE2(n, loss, 64, seed)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(w, "%-8.2f %12v %12v %12v %12v %12d %12d\n",
			loss,
			res.ARQTotal.Round(time.Millisecond),
			res.GBNTotal.Round(time.Millisecond),
			res.ARQPerMsg.Percentile(99).Round(time.Microsecond),
			res.GBNPerMsg.Percentile(99).Round(time.Microsecond),
			res.ARQRetrans, res.GBNRetrans)
		p := fmt.Sprintf("loss_%g_", loss)
		m[p+"arq_p99_us"] = us(res.ARQPerMsg.Percentile(99))
		m[p+"gbn_p99_us"] = us(res.GBNPerMsg.Percentile(99))
		m[p+"arq_retx"] = float64(res.ARQRetrans)
		m[p+"gbn_retx"] = float64(res.GBNRetrans)
	}
	return m, "", nil
}

// runE3 ignores seed: RunE3 seeds its netsim medium with the entry's
// recorded seed itself.
func runE3(w io.Writer, clk clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	samples := 200
	if quick {
		samples = 50
	}
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s %10s\n",
		"subscribers", "mcast pkts", "mcast KB", "ucast pkts", "ucast KB", "saving")
	m := map[string]float64{}
	for _, subs := range []int{2, 8, 32} {
		res, err := RunE3(clk, subs, samples)
		if err != nil {
			return nil, "", err
		}
		saving := float64(res.UcastBytes) / float64(res.McastBytes)
		fmt.Fprintf(w, "%-12d %14d %14.1f %14d %14.1f %9.1fx\n",
			subs, res.McastPackets, float64(res.McastBytes)/1024,
			res.UcastPackets, float64(res.UcastBytes)/1024, saving)
		p := fmt.Sprintf("subs_%d_", subs)
		m[p+"mcast_pkts"] = float64(res.McastPackets)
		m[p+"mcast_bytes"] = float64(res.McastBytes)
		m[p+"ucast_pkts"] = float64(res.UcastPackets)
		m[p+"ucast_bytes"] = float64(res.UcastBytes)
		m[p+"saving"] = saving
	}
	return m, "", nil
}

func runE4(w io.Writer, _ clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	sizes := []int{64 << 10, 512 << 10, 2 << 20}
	receivers := []int{1, 4, 8}
	if quick {
		sizes = []int{64 << 10, 256 << 10}
		receivers = []int{1, 4}
	}
	const loss = 0.02
	fmt.Fprintf(w, "%-10s %-10s %-6s %12s %12s %12s %12s %8s\n",
		"size", "receivers", "loss", "mftp time", "events time", "mftp KB", "events KB", "speedup")
	m := map[string]float64{}
	for _, size := range sizes {
		for _, recv := range receivers {
			res, err := RunE4(size, recv, loss, seed)
			if err != nil {
				return nil, "", err
			}
			fmt.Fprintf(w, "%-10s %-10d %-6.2f %12v %12v %12.0f %12.0f %7.1fx\n",
				byteSize(size), recv, loss,
				res.MFTPTime.Round(time.Millisecond),
				res.EventsTime.Round(time.Millisecond),
				res.MFTPWireKB, res.EventsWireKB,
				float64(res.EventsTime)/float64(res.MFTPTime))
			p := fmt.Sprintf("size_%d_recv_%d_", size, recv)
			m[p+"mftp_ms"] = ms(res.MFTPTime)
			m[p+"events_ms"] = ms(res.EventsTime)
		}
	}
	return m, "", nil
}

func runE5(w io.Writer, _ clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	iters := 2000
	if quick {
		iters = 200
	}
	res, err := RunE5(1<<20, iters)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "file fetch 1MB : local %10v   remote %10v   (%.0fx)\n",
		res.LocalFetch.Round(time.Microsecond), res.RemoteFetch.Round(time.Microsecond),
		float64(res.RemoteFetch)/float64(res.LocalFetch))
	fmt.Fprintf(w, "variable publish: local %10v   remote %10v   (%.0fx)\n",
		res.LocalVar.Round(time.Microsecond), res.RemoteVar.Round(time.Microsecond),
		float64(res.RemoteVar)/float64(res.LocalVar))
	return map[string]float64{
		"local_fetch_us": us(res.LocalFetch), "remote_fetch_us": us(res.RemoteFetch),
		"local_var_us": us(res.LocalVar), "remote_var_us": us(res.RemoteVar),
	}, "", nil
}

func runE7(w io.Writer, _ clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	fmt.Fprintf(w, "%-18s %14s %12s\n", "failure deadline", "redirect time", "failed calls")
	deadlines := []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	if quick {
		deadlines = deadlines[:2]
	}
	m := map[string]float64{}
	for _, d := range deadlines {
		res, err := RunE7(d)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(w, "%-18v %14v %12d\n", d, res.Redirect.Round(time.Millisecond), res.CallsFailed)
		p := fmt.Sprintf("deadline_%dms_", d.Milliseconds())
		m[p+"redirect_ms"] = ms(res.Redirect)
		m[p+"failed"] = float64(res.CallsFailed)
	}
	return m, "", nil
}

func runE8(w io.Writer, _ clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	background, foreground := 5000, 200
	if quick {
		background, foreground = 500, 50
	}
	res, err := RunE8(4, background, foreground, 50*time.Microsecond)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "%-10s %12s %12s %12s\n", "priority", "p50", "p99", "max")
	m := map[string]float64{}
	for i := len(qos.Levels()) - 1; i >= 0; i-- {
		pr := qos.Levels()[i]
		h := res.Priorities[pr]
		fmt.Fprintf(w, "%-10s %12v %12v %12v\n", pr,
			h.Percentile(50).Round(time.Microsecond),
			h.Percentile(99).Round(time.Microsecond),
			h.Max().Round(time.Microsecond))
		m[fmt.Sprintf("%s_p99_us", pr)] = us(h.Percentile(99))
	}
	return m, "", nil
}

func runE9(w io.Writer, _ clock.Clock, quick bool, _ int64) (map[string]float64, string, error) {
	rows := 3
	if quick {
		rows = 2
	}
	plan := flightsim.SurveyPlan("bench", 41.2750, 1.9870, rows, 600, 200, 120, 25)
	bus := transport.NewBus()
	start := time.Now()
	res, err := services.RunMission(services.MissionConfig{
		Plan: plan,
		Transports: func(id transport.NodeID) (transport.Transport, error) {
			return bus.Endpoint(id)
		},
		TimeScale:  60,
		SampleRate: 20 * time.Millisecond,
		Timeout:    3 * time.Minute,
	})
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "waypoints %d  photo sites %d  wall clock %v\n",
		len(plan.Waypoints), res.Photos, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(w, "photos %d  stored %d  detections %d  gs positions %d  track %d\n\n",
		res.Photos, res.Stored, res.Detections, res.GSPositions, res.TrackPoints)
	return map[string]float64{
		"waypoints": float64(len(plan.Waypoints)), "photos": float64(res.Photos),
		"stored": float64(res.Stored), "detections": float64(res.Detections),
		"gs_positions": float64(res.GSPositions),
	}, "", nil
}

func runE11(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	calls := 20
	if quick {
		calls = 5
	}
	fmt.Fprintln(w, "static pin lands on a provider that stalls past the 250ms deadline;")
	fmt.Fprintln(w, "2% loss; hedge dispatches to the redundant provider at 20% of the deadline")
	fmt.Fprintf(w, "%-8s %-8s %8s %8s %12s %12s %12s %8s %8s\n",
		"callers", "hedged", "ok", "failed", "thruput/s", "p50", "p99", "hedges", "busy")
	m := map[string]float64{}
	for _, callers := range []int{1, 8, 64} {
		for _, hedged := range []bool{false, true} {
			res, err := RunE11(clk, callers, calls, hedged, 0.02, 400*time.Millisecond, seed)
			if err != nil {
				return nil, "", err
			}
			p50, p99 := "-", "-"
			if res.OK > 0 {
				p50 = res.Latency.Percentile(50).Round(time.Millisecond).String()
				p99 = res.Latency.Percentile(99).Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-8d %-8v %8d %8d %12.1f %12s %12s %8d %8d\n",
				callers, hedged, res.OK, res.Failed, res.Throughput, p50, p99,
				res.Hedges, res.BusyRej)
			mode := "unhedged"
			if hedged {
				mode = "hedged"
			}
			p := fmt.Sprintf("callers_%d_%s_", callers, mode)
			m[p+"ok"] = float64(res.OK)
			m[p+"failed"] = float64(res.Failed)
			m[p+"p99_us"] = us(res.Latency.Percentile(99))
			m[p+"hedges"] = float64(res.Hedges)
		}
	}
	return m, "", nil
}

func runE12(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	fmt.Fprintln(w, "steady state sends constant-size digests (O(nodes) bytes/period); the old")
	fmt.Fprintln(w, "protocol re-broadcast every record every period (O(total records))")
	fmt.Fprintf(w, "%-7s %-9s %14s %14s %9s %14s\n",
		"nodes", "records", "steady B/prd", "full B/prd", "saving", "new-offer lat")
	nodeCounts := []int{4, 16, 64}
	recordCounts := []int{10, 100, 1000}
	churnNodes, churnRecords := 16, 100
	if quick {
		nodeCounts = []int{4, 16}
		recordCounts = []int{10, 100}
		churnNodes, churnRecords = 4, 20
	}
	m := map[string]float64{}
	var snapText string
	for _, nodes := range nodeCounts {
		for _, records := range recordCounts {
			res, err := RunE12(clk, nodes, records, seed)
			if err != nil {
				return nil, "", err
			}
			snapText = res.MetricsText
			fmt.Fprintf(w, "%-7d %-9d %14.0f %14.0f %8.1fx %14v\n",
				nodes, records,
				res.SteadyBytesPerPeriod, res.BaselineBytesPerPeriod,
				res.BaselineBytesPerPeriod/res.SteadyBytesPerPeriod,
				res.Converge.Round(10*time.Microsecond))
			p := fmt.Sprintf("nodes_%d_records_%d_", nodes, records)
			m[p+"steady_bytes_per_period"] = res.SteadyBytesPerPeriod
			m[p+"baseline_bytes_per_period"] = res.BaselineBytesPerPeriod
			m[p+"converge_us"] = us(res.Converge)
		}
	}
	churn, err := RunE12Churn(clk, churnNodes, churnRecords, 50, seed+1)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "churn: %d nodes × %d records, %d offers missed behind a partition\n",
		churn.Nodes, churn.RecordsPerNode, churn.MissedOffers)
	fmt.Fprintf(w, "heal re-convergence %v (%d sync requests, %d heartbeats observed)\n",
		churn.HealConverge.Round(time.Millisecond), churn.SyncsUsed, churn.HeartbeatsAfter)
	m["churn_nodes"] = float64(churn.Nodes)
	m["churn_records"] = float64(churn.RecordsPerNode)
	m["churn_heal_converge_ms"] = ms(churn.HealConverge)
	m["churn_syncs"] = float64(churn.SyncsUsed)
	// The 256-node fleet's staggered bootstrap paces out minutes of
	// scenario time: full-size runs only.
	if !quick {
		scale, err := RunE12Scale(clk, 256, 2, 256)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(w, "scale: %d nodes boot-converged in %v; steady %.0f pkts/period; fresh offer in %v\n",
			scale.Nodes, scale.BootConverge.Round(time.Second),
			scale.SteadyPacketsPerPeriod, scale.Converge.Round(time.Millisecond))
		m["scale_nodes"] = float64(scale.Nodes)
		m["scale_boot_converge_ms"] = ms(scale.BootConverge)
		m["scale_steady_packets_per_period"] = scale.SteadyPacketsPerPeriod
		m["scale_converge_us"] = us(scale.Converge)
	}
	return m, snapText, nil
}

func runE13(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	fileBytes := 1 << 20
	if quick {
		fileBytes = 192 * 1024
	}
	const linkBPS, alarmHz = 125_000, 50
	fmt.Fprintf(w, "%dKB transfer UAV→GS over a %d B/s air-to-ground link, %dHz critical alarms\n",
		fileBytes/1024, linkBPS, alarmHz)
	fmt.Fprintln(w, "flood: bulk unshaped — alarms queue behind the chunk backlog at the link")
	fmt.Fprintln(w, "shaped: egress bulk lane paced at 92% of line rate, strict-priority drain")
	res, err := RunE13(clk, fileBytes, linkBPS, alarmHz, seed)
	if err != nil {
		return nil, "", err
	}
	row := func(name string, h *metrics.Histogram, lost, sent int, transfer time.Duration, goodput float64) {
		tr, gp, util := "-", "-", "-"
		if transfer > 0 {
			tr = transfer.Round(time.Millisecond).String()
			gp = fmt.Sprintf("%.0f", goodput/1024)
			util = fmt.Sprintf("%.0f%%", 100*goodput/float64(linkBPS))
		}
		fmt.Fprintf(w, "%-10s %12v %12v %9s %12s %9s %7s\n",
			name,
			h.Percentile(50).Round(time.Microsecond),
			h.Percentile(99).Round(time.Microsecond),
			fmt.Sprintf("%d/%d", lost, sent),
			tr, gp, util)
	}
	fmt.Fprintf(w, "%-10s %12s %12s %9s %12s %9s %7s\n",
		"mode", "alarm p50", "alarm p99", "lost", "transfer", "KB/s", "util")
	row("unloaded", res.Unloaded, 0, int(res.Unloaded.Count()), 0, 0)
	row("flood", res.Flood, res.FloodLost, res.FloodSent, res.FloodTransfer, res.FloodGoodput)
	row("shaped", res.Shaped, res.ShapedLost, res.ShapedSent, res.ShapedTransfer, res.ShapedGoodput)
	fmt.Fprintf(w, "inversion: flood alarm p99 is %.0fx unloaded; shaped is %.1fx (bulk dropped by egress: %d, frames coalesced: %d)\n",
		float64(res.Flood.Percentile(99))/float64(res.Unloaded.Percentile(99)),
		float64(res.Shaped.Percentile(99))/float64(res.Unloaded.Percentile(99)),
		res.ShapedDropped, res.ShapedCoalesced)
	return map[string]float64{
		"unloaded_p99_us":    us(res.Unloaded.Percentile(99)),
		"flood_p99_us":       us(res.Flood.Percentile(99)),
		"shaped_p99_us":      us(res.Shaped.Percentile(99)),
		"flood_lost":         float64(res.FloodLost),
		"shaped_lost":        float64(res.ShapedLost),
		"shaped_goodput_bps": res.ShapedGoodput,
		"shaped_dropped":     float64(res.ShapedDropped),
	}, res.MetricsText, nil
}

func runE14(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	fileBytes := 256 * 1024
	blackoutAfter := 800 * time.Millisecond
	if quick {
		fileBytes = 96 * 1024
		blackoutAfter = 400 * time.Millisecond
	}
	res, err := RunE14(clk, fileBytes, blackoutAfter, seed)
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "%dKB transfer UAV→GS; wifi %d B/s (shaped %d) + radio %d B/s (shaped %d); %dHz critical alarms\n",
		res.FileBytes/1024, res.WifiBPS, res.WifiShapedBPS, res.RadioBPS, res.RadioShaped, res.AlarmHz)
	fmt.Fprintf(w, "policy: critical pins to the robust radio, bulk rides the fat wifi; wifi blacks out %v into the transfer\n",
		res.BlackoutAfter)
	fmt.Fprintf(w, "%-14s %12s %12s %9s\n", "alarms", "p50", "p99", "lost")
	fmt.Fprintf(w, "%-14s %12v %12v %9s\n", "unloaded",
		res.Unloaded.Percentile(50).Round(time.Microsecond),
		res.Unloaded.Percentile(99).Round(time.Microsecond),
		fmt.Sprintf("0/%d", res.Unloaded.Count()))
	fmt.Fprintf(w, "%-14s %12v %12v %9s\n", "loaded+blackout",
		res.Multi.Percentile(50).Round(time.Microsecond),
		res.Multi.Percentile(99).Round(time.Microsecond),
		fmt.Sprintf("%d/%d", res.MultiLost, res.MultiSent))
	fmt.Fprintf(w, "handover: wifi declared down %v after blackout; transfer completed in %v\n",
		res.HandoverDetect.Round(time.Millisecond), res.Transfer.Round(time.Millisecond))
	fmt.Fprintf(w, "wire split UAV→GS: wifi %dKB, radio %dKB; bulk recovered to %.0f B/s = %.0f%% of the radio's shaped rate\n",
		res.WifiBytes/1024, res.RadioBytes/1024, res.RecoveredBPS, 100*res.RecoveredBPS/float64(res.RadioShaped))
	fmt.Fprintf(w, "single-bearer baseline: %d of %d alarms lost across a %v wifi blackout (no second link to fail to)\n",
		res.SingleLost, res.SingleSent, res.SingleBlackout)
	return map[string]float64{
		"multi_lost":          float64(res.MultiLost),
		"multi_sent":          float64(res.MultiSent),
		"multi_p99_us":        us(res.Multi.Percentile(99)),
		"handover_detect_ms":  ms(res.HandoverDetect),
		"recovered_bps":       res.RecoveredBPS,
		"wifi_bytes":          float64(res.WifiBytes),
		"radio_bytes":         float64(res.RadioBytes),
		"single_lost":         float64(res.SingleLost),
		"single_sent":         float64(res.SingleSent),
		"transfer_ms":         ms(res.Transfer),
		"single_blackout_sec": res.SingleBlackout.Seconds(),
	}, res.MetricsText, nil
}

func runE15(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	samples, includeUDP := 400, true
	if quick {
		samples, includeUDP = 100, false
	}
	res, err := RunE15(clk, samples, includeUDP, seed)
	if err != nil {
		return nil, "", err
	}
	m := map[string]float64{}
	fmt.Fprintf(w, "%-8s %10s %12s %14s %12s %14s\n",
		"size", "B/frame", "pooled a/f", "pooled Mf/s", "legacy a/f", "legacy Mf/s")
	for _, c := range res.Codec {
		fmt.Fprintf(w, "%-8s %10.1f %12.3f %14.2f %12.3f %14.2f\n",
			c.Name, c.WireBytesPerFrame,
			c.PooledAllocsPerFrame, c.PooledFramesPerSec/1e6,
			c.LegacyAllocsPerFrame, c.LegacyFramesPerSec/1e6)
		p := "codec_" + c.Name + "_"
		m[p+"wire_b"] = c.WireBytesPerFrame
		m[p+"pooled_allocs"] = c.PooledAllocsPerFrame
		m[p+"legacy_allocs"] = c.LegacyAllocsPerFrame
		m[p+"pooled_fps"] = c.PooledFramesPerSec
		m[p+"legacy_fps"] = c.LegacyFramesPerSec
	}
	ns := res.Netsim
	fmt.Fprintf(w, "netsim: %d/%d samples delivered, %d packets %d bytes on the wire (%.1f B/sample)\n",
		ns.Delivered, ns.Samples, ns.WirePackets, ns.WireBytes, ns.BytesPerSample)
	m["netsim_samples"] = float64(ns.Samples)
	m["netsim_delivered"] = float64(ns.Delivered)
	m["netsim_wire_packets"] = float64(ns.WirePackets)
	m["netsim_wire_bytes"] = float64(ns.WireBytes)
	m["netsim_bytes_per_sample"] = ns.BytesPerSample
	if res.UDPSkipped != "" {
		fmt.Fprintf(w, "udp loopback: skipped (%s)\n", res.UDPSkipped)
	}
	for _, u := range res.UDP {
		fmt.Fprintf(w, "udp %-10s %5dB: %7.0f kframes/s pushed (%.0f MB/s), %d/%d kept by the reader\n",
			u.Mode, u.PayloadBytes, u.FramesPerSec/1e3, u.MBPerSec, u.Delivered, u.Sent)
		p := fmt.Sprintf("udp_%s_%db_", u.Mode, u.PayloadBytes)
		m[p+"fps"] = u.FramesPerSec
		m[p+"delivered"] = float64(u.Delivered)
	}
	return m, res.MetricsText, nil
}

func runE16(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	counts, samples := []int{1000, 10_000, 100_000}, 20
	if quick {
		counts, samples = []int{500, 5000}, 10
	}
	res, err := RunE16(clk, counts, samples, seed)
	if err != nil {
		return nil, "", err
	}
	m := map[string]float64{}
	fmt.Fprintf(w, "%-10s %10s %12s %12s %14s %14s\n",
		"clients", "delivered", "air pkts", "air KB", "air B/sample", "client MB")
	for _, pt := range res.Sweep {
		fmt.Fprintf(w, "%-10d %10d %12d %12.1f %14.1f %14.2f\n",
			pt.Clients, pt.Delivered, pt.AirPackets, float64(pt.AirBytes)/1024,
			pt.AirBytesPerSample, float64(pt.ClientBytes)/(1<<20))
		p := fmt.Sprintf("sweep_%d_", pt.Clients)
		m[p+"clients"] = float64(pt.Clients)
		m[p+"samples"] = float64(pt.Samples)
		m[p+"delivered"] = float64(pt.Delivered)
		m[p+"air_packets"] = float64(pt.AirPackets)
		m[p+"air_bytes"] = float64(pt.AirBytes)
		m[p+"air_bytes_per_sample"] = pt.AirBytesPerSample
		m[p+"client_bytes"] = float64(pt.ClientBytes)
	}
	fmt.Fprintf(w, "air flatness (largest/smallest B/sample): %.2f — one fabric subscription feeds every audience size\n",
		res.AirFlatnessRatio)
	a := res.Alloc
	fmt.Fprintf(w, "allocs/sample: %.1f @ %d clients, %.1f @ %d clients — marginal %.4f per extra client\n",
		a.SmallPerSample, a.SmallClients, a.BigPerSample, a.BigClients, a.PerClientMarginal)
	s := res.Slow
	fmt.Fprintf(w, "slow consumers: %d/%d stalled clients evicted; healthy p99 %.2fms with stalls vs %.2fms clean (%d healthy, %d samples)\n",
		s.Evicted, s.StalledClients, s.StalledP99Ms, s.BaselineP99Ms, s.HealthyClients, s.Samples)
	m["air_flatness_ratio"] = res.AirFlatnessRatio
	m["alloc_small_clients"] = float64(a.SmallClients)
	m["alloc_big_clients"] = float64(a.BigClients)
	m["alloc_small_per_sample"] = a.SmallPerSample
	m["alloc_big_per_sample"] = a.BigPerSample
	m["alloc_per_client_marginal"] = a.PerClientMarginal
	m["slow_healthy"] = float64(s.HealthyClients)
	m["slow_stalled"] = float64(s.StalledClients)
	m["slow_samples"] = float64(s.Samples)
	m["slow_evicted"] = float64(s.Evicted)
	m["slow_baseline_p50_ms"] = s.BaselineP50Ms
	m["slow_baseline_p99_ms"] = s.BaselineP99Ms
	m["slow_stalled_p50_ms"] = s.StalledP50Ms
	m["slow_stalled_p99_ms"] = s.StalledP99Ms
	return m, res.MetricsText, nil
}

func runE17(w io.Writer, clk clock.Clock, quick bool, seed int64) (map[string]float64, string, error) {
	samples, scalingDur := 300, 200*time.Millisecond
	if quick {
		samples, scalingDur = 80, 0 // skip the wall-clock flood on smoke runs
	}
	res, err := RunE17(clk, samples, scalingDur, seed)
	if err != nil {
		return nil, "", err
	}
	m := map[string]float64{}
	a := res.Alloc
	fmt.Fprintf(w, "allocs/frame through the full receive path: owned %.3f, pooled copy %.3f, ack-required %.3f\n",
		a.OwnedPerFrame, a.CopyPerFrame, a.AckedPerFrame)
	m["alloc_owned_per_frame"] = a.OwnedPerFrame
	m["alloc_copy_per_frame"] = a.CopyPerFrame
	m["alloc_acked_per_frame"] = a.AckedPerFrame
	if len(res.Scaling) > 0 {
		fmt.Fprintf(w, "%-8s %10s %12s %12s %14s\n", "shards", "senders", "delivered", "dropped", "Mframes/s")
		for _, pt := range res.Scaling {
			fmt.Fprintf(w, "%-8d %10d %12d %12d %14.2f\n",
				pt.Shards, pt.Senders, pt.Delivered, pt.Dropped, pt.FramesPerSec/1e6)
			p := fmt.Sprintf("scaling_%d_", pt.Shards)
			m[p+"delivered"] = float64(pt.Delivered)
			m[p+"dropped"] = float64(pt.Dropped)
			m[p+"fps"] = pt.FramesPerSec
		}
		fmt.Fprintf(w, "scaling ratio 4/1 shards: %.2fx, 8/1 shards: %.2fx (host has %d cores)\n",
			res.ScalingRatio(4, 1), res.ScalingRatio(8, 1), runtime.GOMAXPROCS(0))
		m["scaling_ratio_4_over_1"] = res.ScalingRatio(4, 1)
		m["scaling_ratio_8_over_1"] = res.ScalingRatio(8, 1)
	}
	ns := res.Netsim
	fmt.Fprintf(w, "netsim: %d senders x %d samples into a 4-shard subscriber, %d delivered, %d packets %d bytes on the wire\n",
		ns.Senders, ns.Samples, ns.Delivered, ns.WirePackets, ns.WireBytes)
	m["netsim_senders"] = float64(ns.Senders)
	m["netsim_samples"] = float64(ns.Samples)
	m["netsim_delivered"] = float64(ns.Delivered)
	m["netsim_wire_packets"] = float64(ns.WirePackets)
	m["netsim_wire_bytes"] = float64(ns.WireBytes)
	return m, res.MetricsText, nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
