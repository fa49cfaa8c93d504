package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/naming"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"

	"uavmw/perfbench/harness"
)

// telemetry_fanin: eight UAV containers publish best-effort telemetry to
// one ground container on the in-process bus. It exercises the per-frame
// fast path (encoding, frame codec, egress coalescing, bus, ingress
// sharding across eight sources, link liveness, pooled buffers) and
// bypasses ARQ, RPC, file transfer and the virtual clock.

const (
	faninUAVs = 8
	// faninWindow is the closed loop's samples in flight, split evenly
	// between the two generators.
	faninWindow = 64
	// faninRate is the open loop's fixed offered rate, samples/s (625 Hz
	// per UAV): a few percent of the closed-loop capacity, so latency is
	// measured on an unsaturated container, and slow enough that the
	// generators' sleeps do not batch samples into bursts.
	faninRate = 5000
	// faninMaxRate bounds the closed loop's exactly-once bitset.
	faninMaxRate = 2_000_000
)

type fanin struct {
	env   *env
	nodes []*core.Node // ground first
	pubs  [faninUAVs]*variables.Publisher
	cur   atomic.Pointer[faninPhase]
}

// faninPhase is one measured phase's receive-side state. Operation i is
// published by generator i%2 on UAV uavOf(i) with seq base+i.
type faninPhase struct {
	base      uint64
	n         int               // operation slots
	seen      *harness.Bitset   // closed loop: exactly-once check
	tl        *harness.Timeline // open loop: due and arrival instants
	tokens    [2]chan struct{}  // closed loop: each generator's window
	delivered atomic.Int64
	wrong     atomic.Int64 // wrong values or wrong topic
	dups      atomic.Int64
}

// uavOf spreads each generator's operations over its four UAVs.
func uavOf(i int) int { return (i/2%4)*2 + i%2 }

func faninTopic(uav int) string { return fmt.Sprintf("uav%d.telemetry", uav) }

// setupFanin builds the deployment and returns it once every publisher is
// in the ground directory and every subscription is installed.
func setupFanin(e *env) (*fanin, error) {
	f := &fanin{env: e}
	for u := 0; u < faninUAVs; u++ {
		e.ops.chans[faninTopic(u)] = kindTelemetry // before any traced node reads it
	}
	bus := transport.NewBus()
	mk := func(id transport.NodeID) (*core.Node, error) {
		ep, err := bus.Endpoint(id)
		if err != nil {
			return nil, err
		}
		n, err := e.node(ep)
		if err == nil {
			f.nodes = append(f.nodes, n)
		}
		return n, err
	}
	gs, err := mk("gs")
	if err != nil {
		return f, err
	}
	order := permute(e.key, faninUAVs)
	names := make([]string, 0, faninUAVs)
	for _, u := range order {
		n, err := mk(transport.NodeID(fmt.Sprintf("uav%d", u)))
		if err != nil {
			return f, err
		}
		name := faninTopic(u)
		if f.pubs[u], err = n.Variables().Offer(name, "telemetry", telemetryType, qos.VariableQoS{}); err != nil {
			return f, err
		}
		n.AnnounceNow()
		names = append(names, name)
	}
	if err := e.waitFor("telemetry publishers", 10*time.Second, func() bool {
		return providers(gs, naming.KindVariable, names...)
	}); err != nil {
		return f, err
	}
	for _, u := range order {
		if _, err := gs.Variables().Subscribe(faninTopic(u), telemetryType,
			variables.SubscribeOptions{OnSample: f.onSample(u)}); err != nil {
			return f, err
		}
	}
	return f, nil
}

func (f *fanin) close() { f.env.closeAll(f.nodes) }

func (f *fanin) onSample(uav int) func(any, time.Time) {
	return func(v any, _ time.Time) {
		start := harness.Now()
		ph := f.cur.Load()
		seq, ok := checkTelemetry(f.env.key, v)
		i := int(seq - ph.base)
		switch {
		case !ok || seq < ph.base || i >= ph.n || uavOf(i) != uav:
			ph.wrong.Add(1)
			return
		case ph.tl != nil && !ph.tl.Complete(i, start), ph.seen != nil && !ph.seen.Add(i):
			ph.dups.Add(1)
			return
		}
		ph.delivered.Add(1)
		if ph.seen != nil {
			select {
			case ph.tokens[i%2] <- struct{}{}:
			default:
			}
		}
		if tr := f.env.tr; tr != nil {
			tr.Handler(opID(kindTelemetry, seq), start, harness.Now())
		}
	}
}

// publish sends operation i, recording the spans of a traced run and the
// Publish call time when pubTime is set.
func (f *fanin) publish(m map[string]any, ph *faninPhase, i int, opStart int64, pubTime *harness.Hist) error {
	seq := ph.base + uint64(i)
	v := telemetryValue(m, f.env.key, seq)
	ps := harness.Now()
	err := f.pubs[uavOf(i)].Publish(v)
	pe := harness.Now()
	if pubTime != nil {
		pubTime.Observe(pe - ps)
	}
	if tr := f.env.tr; tr != nil {
		op := opID(kindTelemetry, seq)
		tr.Record(harness.SpanVarPublish, op, "", ps, pe)
		tr.Record(harness.SpanGenOp, op, "", opStart, harness.Now())
	}
	return err
}

// faninResult is one phase's outcome.
type faninResult struct {
	issued, delivered, dups int64
	rates                   []float64 // closed loop: samples/s per window
	cpuPerOp                []float64 // closed loop: CPU µs per sample per window
	lat                     []float64 // open loop: publish-to-handler µs
	dueLat                  []float64 // open loop: due-to-handler µs
	err                     error
}

// closedLoop keeps faninWindow samples in flight for d and reports the
// delivered rate and CPU per sample per 100 ms window.
func (f *fanin) closedLoop(base uint64, d time.Duration, pubTime *harness.Hist) faninResult {
	ph := &faninPhase{base: base, n: int(faninMaxRate * d.Seconds())}
	ph.seen = harness.NewBitset(ph.n)
	for g := range ph.tokens {
		ph.tokens[g] = make(chan struct{}, faninWindow/2)
		for k := 0; k < faninWindow/2; k++ {
			ph.tokens[g] <- struct{}{}
		}
	}
	f.cur.Store(ph)
	stopAt := harness.Now() + int64(d)
	var issued [2]int64
	var errs [2]error
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := make(map[string]any, 9)
			stall := time.NewTimer(time.Hour)
			defer stall.Stop()
			for c := 0; ; c++ {
				i := 2*c + g
				if i >= ph.n {
					return
				}
				select {
				case <-ph.tokens[g]:
				default:
					stall.Reset(2 * time.Second)
					select {
					case <-ph.tokens[g]:
						stall.Stop()
					case <-stall.C:
						errs[g] = fmt.Errorf("closed loop stalled: samples in flight never arrived")
						return
					}
				}
				now := harness.Now()
				if now >= stopAt {
					return
				}
				if err := f.publish(m, ph, i, now, pubTime); err != nil {
					errs[g] = err
					return
				}
				issued[g]++
			}
		}(g)
	}
	rates, cpu := windows(stopAt, ph.delivered.Load)
	wg.Wait()
	res := faninResult{issued: issued[0] + issued[1], rates: rates, cpuPerOp: cpu}
	res.err = errors.Join(errs[0], errs[1], f.drain(ph, res.issued))
	res.delivered, res.dups = ph.delivered.Load(), ph.dups.Load()
	return res
}

// openLoop offers faninRate samples/s for d. Each sample's latency runs
// from its publish call to its handler; how late the generators ran is
// recorded in genLag and, with it, the due-to-handler latency.
func (f *fanin) openLoop(base uint64, d time.Duration, pubTime, genLag *harness.Hist) faninResult {
	n := int(faninRate * d.Seconds())
	ph := &faninPhase{base: base, n: n, tl: harness.NewTimeline(n)}
	f.cur.Store(ph)
	const interval = int64(time.Second) / faninRate
	t0 := harness.Now() + int64(time.Millisecond)
	var errs [2]error
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := make(map[string]any, 9)
			for i := g; i < n; i += 2 {
				due := t0 + int64(i)*interval
				if wait := due - harness.Now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				start := harness.Now()
				ph.tl.SetStart(i, start)
				if genLag != nil {
					genLag.Observe(start - due)
				}
				if err := f.publish(m, ph, i, due, pubTime); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res := faninResult{issued: int64(n)}
	res.err = errors.Join(errs[0], errs[1], f.drain(ph, res.issued))
	res.delivered, res.dups = ph.delivered.Load(), ph.dups.Load()
	res.lat = ph.tl.Latencies(n)
	res.dueLat = make([]float64, n)
	for i := range res.dueLat {
		res.dueLat[i] = harness.Lost
		if done := ph.tl.Done(i); done != 0 {
			res.dueLat[i] = float64(done-(t0+int64(i)*interval)) / 1e3
		}
	}
	return res
}

// drain waits until every issued sample has arrived (or 2s pass: the
// missing ones count as lost).
func (f *fanin) drain(ph *faninPhase, issued int64) error {
	deadline := time.Now().Add(2 * time.Second)
	for ph.delivered.Load()+ph.wrong.Load() < issued {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d samples never arrived", issued-ph.delivered.Load()-ph.wrong.Load(), issued)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// faninRun is the closed then the open loop on one deployment.
type faninRun struct {
	closed, open faninResult
	cost         *cost
	win          harness.Window
	heapMB       float64
	depthMax     int64
}

func (r faninRun) ops() int64 { return r.closed.delivered + r.open.delivered }

func (r faninRun) account(res *result) {
	res.account(r.closed.issued+r.open.issued, r.ops(), r.closed.dups+r.open.dups, r.closed.err, r.open.err)
}

// run measures both loops, d each. sampleDepth adds the registry window
// and the ingress queue-depth sampling of the traced run's plain half.
func (f *fanin) run(d time.Duration, sampleDepth bool, pubTime, genLag *harness.Hist) faninRun {
	var r faninRun
	var depthOf *core.Node
	if sampleDepth {
		depthOf = f.nodes[0]
		r.win.Before = snapshots(f.nodes)
	}
	r.cost = startCost()
	mon := startMonitor(depthOf)
	r.closed = f.closedLoop(0, d, pubTime)
	closedHeap, closedDepth := mon.finish()
	mon = startMonitor(depthOf)
	r.open = f.openLoop(1<<40, d, pubTime, genLag)
	openHeap, openDepth := mon.finish()
	r.cost.end()
	r.heapMB, r.depthMax = max(closedHeap, openHeap), max(closedDepth, openDepth)
	if sampleDepth {
		r.win.After = snapshots(f.nodes)
	}
	return r
}

// runFanin is the telemetry_fanin workload.
func runFanin(o options) (*result, error) {
	key := runKey(o.seed)
	res := newResult()
	if !o.trace {
		var rates, cpu, heap, lat []float64
		host := newHostRefs()
		setups, err := measureReps(func(measured bool) (float64, error) {
			start := time.Now()
			f, err := setupFanin(newEnv(key, clock.Real{}, nil))
			took := time.Since(start).Seconds()
			if err != nil || !measured {
				f.close()
				return took, err
			}
			r := f.run(o.seconds/(2*wallReps), false, nil, nil)
			f.close()
			r.account(res)
			k := host.next()
			rates = append(rates, scaled(r.closed.rates, 1/k)...)
			cpu = append(cpu, scaled(r.closed.cpuPerOp, k)...)
			heap = append(heap, r.heapMB)
			lat = append(lat, scaled(r.open.lat, k)...)
			return took, nil
		})
		if err != nil {
			return nil, err
		}
		res.e2e(res.median50(lat, latencyChunk), harness.Median(rates), harness.Median(cpu), harness.Median(heap),
			harness.Median(setups)*host.run())
		return res, nil
	}

	// Traced run: the plain half feeds the profile, registry, runtime and
	// generator figures; the wrapped half feeds the spans.
	f, err := setupFanin(newEnv(key, clock.Real{}, nil))
	if err != nil {
		f.close()
		return nil, err
	}
	pubTime, genLag := &harness.Hist{}, &harness.Hist{}
	prof, err := startProfile()
	if err != nil {
		f.close()
		return nil, err
	}
	pr := f.run(o.seconds/4, true, pubTime, genLag)
	shares, samples, err := prof.stop()
	f.close()
	if err != nil {
		return nil, err
	}
	tr := harness.NewTracer(64)
	ft, err := setupFanin(newEnv(key, clock.Real{}, tr))
	if err != nil {
		ft.close()
		return nil, err
	}
	trun := ft.run(o.seconds/4, false, nil, nil)
	ft.close()
	pr.account(res)
	trun.account(res)
	layerMetrics(res.layers,
		plainHalf{ops: pr.ops(), cost: pr.cost, win: pr.win, shares: shares, samples: samples, depthMax: pr.depthMax, genLag: genLag},
		tracedHalf{ops: trun.ops(), cost: trun.cost, tr: tr})
	res.layers["variables.publish_ns_p50"] = pct(pubTime, 0.5, 1)
	res.layers["variables.delivered_ratio"] = ratio(float64(pr.ops()), float64(pr.closed.issued+pr.open.issued))
	res.tail(pr.open.lat, latencyChunk)
	if p99, err := harness.Percentile(pr.open.dueLat, 0.99); err == nil {
		res.layers["gen.due_latency_p99_us"] = finite(p99)
	}
	return res, res.dumpTrace(o, tr)
}
