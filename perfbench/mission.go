package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/egress"
	"uavmw/internal/events"
	"uavmw/internal/experiments"
	"uavmw/internal/filetransfer"
	"uavmw/internal/gateway"
	"uavmw/internal/naming"
	"uavmw/internal/netsim"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/variables"

	"uavmw/perfbench/harness"
)

// mission_sim: a fixed amount of simulated mission on the virtual clock
// over the simulated network. Sixteen UAVs stream telemetry and critical
// alarms to a ground station over lossy, rate-capped links while uav0
// serves an image the ground station fetches, and a ground gateway fans
// every topic out to in-process consumers. It is the only workload that
// exercises the virtual clock, file transfer, the egress bulk pacer and
// priority lanes, and the gateway; it measures what the mission-campaign
// harness pays per simulated second.

const (
	missionUAVs        = 16
	missionTraffic     = 10 * time.Second // simulated time of telemetry and alarms
	missionTelemetryHz = 50
	missionAlarmHz     = 10
	missionImageBytes  = 512 << 10
	missionLinkBPS     = 125_000 // each UAV→ground link
	missionBulkBPS     = 100_000 // image pacing on uav0
	missionConsumers   = 4
	// missionLoss is each link's loss probability. At 1% the alarm p99
	// would sit on the edge of the retransmitted share (about 1% of
	// alarms), flipping between the first-transmission tail and the ARQ
	// recovery time from seed to seed; at 2% it is the recovery time.
	missionLoss = 0.02
	// missionSetups is the least number of set-ups a run times.
	missionSetups = 41
	imageName     = "uav0.image"
)

func uavID(u int) transport.NodeID { return transport.NodeID(fmt.Sprintf("uav%d", u)) }
func missionTopic(u int) string    { return fmt.Sprintf("uav%d.telemetry", u) }
func missionAlarm(u int) string    { return fmt.Sprintf("uav%d.alarm", u) }

// consumer is one in-process gateway client. It checks the stream's
// framing (4-byte big-endian length, then a JSON data frame) and counts
// event frames.
type consumer struct {
	tr     *harness.Tracer
	mu     sync.Mutex
	buf    []byte
	events int64
	bad    int64
}

func (c *consumer) Write(p []byte) (int, error) {
	start := harness.Now()
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	for len(c.buf) >= 4 {
		n := int(binary.BigEndian.Uint32(c.buf))
		if len(c.buf) < 4+n {
			break
		}
		body := c.buf[4 : 4+n]
		switch {
		case bytes.HasPrefix(body, []byte(`{"stream":"event"`)):
			c.events++
		case !bytes.HasPrefix(body, []byte(`{"stream":"variable"`)):
			c.bad++
		}
		c.buf = c.buf[4+n:]
	}
	c.mu.Unlock()
	if c.tr != nil {
		c.tr.Record(harness.SpanGatewayWrite, 0, "consumer", start, harness.Now())
	}
	return len(p), nil
}

func (c *consumer) Close() error                     { return nil }
func (c *consumer) SetWriteDeadline(time.Time) error { return nil }

// missionRep is one simulated mission's outcome.
type missionRep struct {
	setupWall, measWall time.Duration
	virtual, bulk       time.Duration
	telemetrySent       int64
	telemetryOK         int64
	alarmsSent          int64
	alarmsOK            int64
	dups                int64
	alarmLat            []float64 // virtual µs, due to handler
	alarmPub            *harness.Hist
	varPub              *harness.Hist
	wireOverhead        float64
	cost                *cost
	win                 harness.Window
	heapMB              float64
	depthMax            int64
	errs                []error
}

func (r *missionRep) ops() int64 { return r.telemetrySent + r.alarmsSent }

// fly builds and runs one mission on clk; every goroutine it starts is
// registered with the clock.
func (r *missionRep) fly(clk clock.Clock, key uint64, seed int64, fo flyOpts) error {
	tr := fo.tr
	e := newEnv(key, clk, tr)
	for u := 0; u < missionUAVs; u++ { // before any traced node reads them
		e.ops.chans[missionTopic(u)], e.ops.chans[missionAlarm(u)] = kindTelemetry, kindAlarm
	}
	setupStart := time.Now()
	net := netsim.New(netsim.Config{
		Seed: int64(mix(uint64(seed)) >> 1), Latency: 2 * time.Millisecond,
		Jitter: time.Millisecond, Clock: clk,
	})
	defer net.Close()
	var nodes []*core.Node
	defer func() { e.closeAll(nodes) }()
	mk := func(id transport.NodeID, extra ...core.NodeOption) (*core.Node, error) {
		ep, err := net.Node(id)
		if err != nil {
			return nil, err
		}
		n, err := e.node(ep, extra...)
		if err == nil {
			nodes = append(nodes, n)
		}
		return n, err
	}
	gs, err := mk("gs")
	if err != nil {
		return err
	}
	image := imageBytes(key, missionImageBytes)
	vars := make([]*variables.Publisher, missionUAVs)
	alarms := make([]*events.Publisher, missionUAVs)
	var varNames, alarmNames []string
	order := permute(key, missionUAVs)
	for _, u := range order {
		net.SetLink(uavID(u), "gs", missionLink(uavID(u), "gs", 0))
		var extra []core.NodeOption
		if u == 0 {
			extra = append(extra, core.WithEgress(egress.Config{BulkRateBPS: missionBulkBPS, BulkBurst: 2048}))
		}
		n, err := mk(uavID(u), extra...)
		if err != nil {
			return err
		}
		vn, an := missionTopic(u), missionAlarm(u)
		if vars[u], err = n.Variables().Offer(vn, "telemetry", telemetryType, qos.VariableQoS{}); err != nil {
			return err
		}
		if alarms[u], err = n.Events().Offer(an, "health", alarmType, alarmQoS); err != nil {
			return err
		}
		if u == 0 {
			if _, err := n.Files().Offer(imageName, "camera", image,
				qos.TransferQoS{ChunkSize: 1024, RateBPS: missionBulkBPS}); err != nil {
				return err
			}
		}
		n.AnnounceNow()
		varNames, alarmNames = append(varNames, vn), append(alarmNames, an)
	}
	if err := e.waitFor("mission resources", time.Minute, func() bool {
		return providers(gs, naming.KindVariable, varNames...) &&
			providers(gs, naming.KindEvent, alarmNames...) && providers(gs, naming.KindFile, imageName)
	}); err != nil {
		return err
	}

	// Receive side. Operation seqs are k*missionUAVs+u for the k-th sample
	// or alarm of UAV u.
	nTelem := int(missionTraffic.Seconds()*missionTelemetryHz) * missionUAVs
	nAlarm := int(missionTraffic.Seconds()*missionAlarmHz) * missionUAVs
	telemSeen := harness.NewBitset(nTelem)
	alarmTL := harness.NewTimeline(nAlarm)
	var wrong, dups atomic.Int64
	var mStart time.Time
	for i, u := range order {
		if _, err := gs.Variables().Subscribe(varNames[i], telemetryType, variables.SubscribeOptions{
			OnSample: func(v any, _ time.Time) {
				start := harness.Now()
				seq, ok := checkTelemetry(key, v)
				switch {
				case !ok || seq >= uint64(nTelem) || int(seq%missionUAVs) != u:
					wrong.Add(1)
				case !telemSeen.Add(int(seq)):
					dups.Add(1)
				}
				if tr != nil {
					tr.Handler(opID(kindTelemetry, seq), start, harness.Now())
				}
			}}); err != nil {
			return err
		}
	}
	for _, an := range alarmNames {
		if _, err := gs.Events().Subscribe(an, alarmType, alarmQoS, func(v any, _ transport.NodeID) {
			start := harness.Now()
			seq, ok := checkAlarm(key, v)
			switch {
			case !ok || seq >= uint64(nAlarm):
				wrong.Add(1)
			case !alarmTL.Complete(int(seq), int64(clk.Since(mStart))):
				dups.Add(1)
			}
			if tr != nil {
				tr.Handler(opID(kindAlarm, seq), start, harness.Now())
			}
		}); err != nil {
			return err
		}
	}
	if err := e.waitFor("alarm subscriptions", time.Minute, func() bool {
		for _, p := range alarms {
			if len(p.Subscribers()) != 1 {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	gw := gateway.New(gs, gateway.Options{})
	defer gw.Close()
	consumers := make([]*consumer, missionConsumers)
	for i := range consumers {
		consumers[i] = &consumer{tr: tr}
		cl, err := gw.Attach(consumers[i])
		if err != nil {
			return err
		}
		for j := range varNames {
			if err := cl.Subscribe(gateway.StreamVariable, varNames[j]); err != nil {
				return err
			}
			if err := cl.Subscribe(gateway.StreamEvent, alarmNames[j]); err != nil {
				return err
			}
		}
	}
	r.setupWall = time.Since(setupStart)
	if fo.setupOnly {
		return nil
	}
	// Loss starts with the mission: set-up is timed on clean links, so it
	// measures discovery work rather than how often a seed drops an
	// announcement.
	ids := []transport.NodeID{"gs"}
	for u := 0; u < missionUAVs; u++ {
		ids = append(ids, uavID(u))
	}
	for _, from := range ids {
		for _, to := range ids {
			if from != to {
				net.SetLink(from, to, missionLink(from, to, missionLoss))
			}
		}
	}

	// Measured phase: the fetch and the traffic start together.
	var depthOf *core.Node
	if fo.sampleDepth {
		depthOf = gs
		r.win.Before = snapshots(nodes)
	}
	link0, link1 := net.LinkStats("uav0", "gs"), net.LinkStats("uav1", "gs")
	mon := startMonitor(depthOf)
	r.cost = startCost()
	wallStart := time.Now()
	mStart = clk.Now()
	fetched := make(chan error, 1)
	clock.Go(clk, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		got, _, err := gs.Files().Fetch(ctx, imageName, filetransfer.FetchOptions{})
		r.bulk = clk.Since(mStart)
		if err == nil && !bytes.Equal(got, image) {
			err = fmt.Errorf("image arrived altered (%d of %d bytes)", len(got), len(image))
		}
		fetched <- err
	})
	r.varPub, r.alarmPub = &harness.Hist{}, &harness.Hist{}
	var pubMu sync.Mutex
	var wg sync.WaitGroup
	var alarmErr error
	for _, t := range missionSchedule(key) {
		if wait := t.at - clk.Since(mStart); wait > 0 {
			clk.Sleep(wait)
		}
		seq := uint64(t.k*missionUAVs + t.uav)
		if !t.alarm {
			ps := harness.Now()
			err := vars[t.uav].Publish(telemetryValue(nil, key, seq))
			pe := harness.Now()
			r.varPub.Observe(pe - ps)
			if tr != nil {
				op := opID(kindTelemetry, seq)
				tr.Record(harness.SpanVarPublish, op, "", ps, pe)
				tr.Record(harness.SpanGenOp, op, "", ps, harness.Now())
			}
			if err != nil {
				return fmt.Errorf("telemetry %d: %w", seq, err)
			}
			r.telemetrySent++
			continue
		}
		alarmTL.SetStart(int(seq), int64(t.at))
		r.alarmsSent++
		wg.Add(1)
		pub := alarms[t.uav]
		clock.Go(clk, func() {
			defer wg.Done()
			vs, ps := clk.Now(), harness.Now()
			err := pub.Publish(context.Background(), alarmValue(key, seq))
			pe := harness.Now()
			pubMu.Lock()
			r.alarmPub.Observe(int64(clk.Since(vs)))
			if err != nil && alarmErr == nil {
				alarmErr = fmt.Errorf("alarm %d: %w", seq, err)
			}
			pubMu.Unlock()
			if tr != nil {
				op := opID(kindAlarm, seq)
				tr.Record(harness.SpanEvPublish, op, "", ps, pe)
				tr.Record(harness.SpanGenOp, op, "", ps, harness.Now())
			}
		})
	}
	clock.Blocking(clk, wg.Wait)
	var fetchErr error
	clock.Blocking(clk, func() { fetchErr = <-fetched })
	clk.Sleep(500 * time.Millisecond) // let the last samples and alarms land
	r.virtual = clk.Since(mStart)
	r.measWall = time.Since(wallStart)
	r.cost.end()
	r.heapMB, r.depthMax = mon.finish()
	if fo.sampleDepth {
		r.win.After = snapshots(nodes)
	}
	l0, l1 := net.LinkStats("uav0", "gs"), net.LinkStats("uav1", "gs")
	r.wireOverhead = float64(int64(l0.Bytes-link0.Bytes)-int64(l1.Bytes-link1.Bytes)) / float64(len(image))

	r.telemetryOK = int64(telemSeen.Count())
	r.alarmsOK = int64(alarmTL.Completed(nAlarm))
	r.alarmLat = alarmTL.Latencies(nAlarm)
	r.dups = dups.Load()
	if n := wrong.Load(); n > 0 {
		r.errs = append(r.errs, fmt.Errorf("%d samples or alarms arrived altered", n))
	}
	for i, c := range consumers {
		c.mu.Lock()
		if c.bad > 0 || len(c.buf) != 0 || c.events != r.alarmsOK {
			r.errs = append(r.errs, fmt.Errorf("gateway consumer %d: %d event frames for %d alarms, %d malformed, %d bytes unframed",
				i, c.events, r.alarmsOK, c.bad, len(c.buf)))
		}
		c.mu.Unlock()
	}
	r.errs = append(r.errs, fetchErr, alarmErr)
	return nil
}

// missionLink is one directed link's configuration: every UAV→ground
// link is rate-capped; loss applies once the mission starts.
func missionLink(from, to transport.NodeID, loss float64) netsim.LinkConfig {
	lc := netsim.InheritLink()
	lc.Loss = loss
	if to == "gs" {
		lc.BandwidthBPS = missionLinkBPS
	}
	return lc
}

// missionTick is one scheduled publication.
type missionTick struct {
	at    time.Duration // since the measured phase began
	uav   int
	k     int // the UAV's k-th sample or alarm
	alarm bool
}

// missionSchedule lays every UAV's telemetry (every 20 ms) and alarms
// (every 100 ms) on the timeline with per-UAV phase offsets from the key.
func missionSchedule(key uint64) []missionTick {
	var ts []missionTick
	for u := 0; u < missionUAVs; u++ {
		h := mix(key ^ uint64(u))
		tp, ap := time.Second/missionTelemetryHz, time.Second/missionAlarmHz
		tOff := time.Duration(h % uint64(tp))
		aOff := time.Duration(mix(h) % uint64(ap))
		for k := 0; k < int(missionTraffic/tp); k++ {
			ts = append(ts, missionTick{at: tOff + time.Duration(k)*tp, uav: u, k: k})
		}
		for k := 0; k < int(missionTraffic/ap); k++ {
			ts = append(ts, missionTick{at: aOff + time.Duration(k)*ap, uav: u, k: k, alarm: true})
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].at != ts[j].at {
			return ts[i].at < ts[j].at
		}
		if ts[i].uav != ts[j].uav {
			return ts[i].uav < ts[j].uav
		}
		return !ts[i].alarm && ts[j].alarm
	})
	return ts
}

// flyOpts selects what one mission records: spans (tr), the registry
// window and queue depths (sampleDepth), or only its set-up (setupOnly).
type flyOpts struct {
	tr          *harness.Tracer
	sampleDepth bool
	setupOnly   bool
}

// flyOnce runs one mission under a fresh virtual clock.
func flyOnce(key uint64, seed int64, fo flyOpts) (*missionRep, error) {
	r := &missionRep{}
	if _, err := experiments.RunVirtual(func(clk clock.Clock) error {
		return r.fly(clk, key, seed, fo)
	}); err != nil {
		return nil, err
	}
	return r, nil
}

func runMission(o options) (*result, error) {
	key := runKey(o.seed)
	res := newResult()
	if !o.trace {
		// Missions repeat until the run's time is spent; every mission is
		// the same simulated work, so the wall-clock figures are medians
		// over them. More builds without a mission fill up the set-up
		// sample.
		var tput, cpu, heap, p50, setups []float64
		start := time.Now()
		host := newHostRefs()
		for len(tput) == 0 || time.Since(start) < o.seconds {
			r, err := flyOnce(key, o.seed, flyOpts{})
			if err != nil {
				return nil, err
			}
			res.account(r.ops(), r.telemetrySent+r.alarmsOK, r.dups, r.errs...)
			k := host.next()
			setups = append(setups, r.setupWall.Seconds()*k)
			tput = append(tput, float64(r.ops())/r.measWall.Seconds()/k)
			cpu = append(cpu, r.cost.perOp(r.ops())*k)
			heap = append(heap, r.heapMB)
			v, err := harness.Percentile(r.alarmLat, 0.5)
			if err != nil {
				return nil, fmt.Errorf("alarm latency: %w", err)
			}
			p50 = append(p50, v)
		}
		for len(setups) < missionSetups {
			r, err := flyOnce(key, o.seed, flyOpts{setupOnly: true})
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setupWall.Seconds()*host.run())
		}
		// Alarm latency is virtual time: missions of one seed differ only
		// where same-instant events on different nodes are ordered by
		// goroutine scheduling (well under 1% in the median).
		res.e2e(harness.Median(p50), harness.Median(tput), harness.Median(cpu), harness.Median(heap), harness.Median(setups))
		return res, nil
	}

	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	pr, err := flyOnce(key, o.seed, flyOpts{sampleDepth: true})
	shares, samples, perr := prof.stop()
	if err = errors.Join(err, perr); err != nil {
		return nil, err
	}
	tr := harness.NewTracer(1)
	trun, err := flyOnce(key, o.seed, flyOpts{tr: tr})
	if err != nil {
		return nil, err
	}
	// Telemetry lost to the injected 1% loss is expected: a best-effort
	// sample counts as delivered once sent, and delivered_ratio reports it.
	res.account(pr.ops()+trun.ops(), pr.telemetrySent+pr.alarmsOK+trun.telemetrySent+trun.alarmsOK,
		pr.dups+trun.dups, errors.Join(append(pr.errs, trun.errs...)...))
	layerMetrics(res.layers,
		plainHalf{ops: pr.ops(), cost: pr.cost, win: pr.win, shares: shares, samples: samples, depthMax: pr.depthMax},
		tracedHalf{ops: trun.ops(), cost: trun.cost, tr: tr})
	res.layers["variables.publish_ns_p50"] = pct(pr.varPub, 0.5, 1)
	res.layers["variables.delivered_ratio"] = ratio(float64(pr.telemetryOK), float64(pr.telemetrySent))
	res.layers["events.publish_us_p50"] = pct(pr.alarmPub, 0.5, 1e3)
	res.tail(pr.alarmLat, len(pr.alarmLat))
	if p50, err := harness.Percentile(pr.alarmLat, 0.5); err == nil {
		res.layers["events.alarm_p50_us"] = finite(p50)
	}
	if p99, err := harness.Percentile(pr.alarmLat, 0.99); err == nil {
		res.layers["events.alarm_p99_us"] = finite(p99)
	}
	res.layers["filetransfer.bulk_s"] = pr.bulk.Seconds()
	res.layers["filetransfer.wire_overhead"] = pr.wireOverhead
	res.layers["clock.sim_speedup"] = pr.virtual.Seconds() / pr.measWall.Seconds()
	return res, res.dumpTrace(o, tr)
}
