package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/events"
	"uavmw/internal/naming"
	"uavmw/internal/qos"
	"uavmw/internal/transport"

	"uavmw/perfbench/harness"
)

// command_rpc: a ground container commands one UAV container by remote
// call, closed loop, while the UAV raises critical alarms at a fixed rate.
// It exercises the reliable request/response path (ARQ, ack coalescing,
// dedup, the RPC pending table, scheduler classes) on the same egress,
// bus and ingress layers as telemetry_fanin, but from one source,
// latency-bound and with little coalescing.

const (
	commandName = "uav.command"
	alarmTopic  = "uav.alarm"
	// alarmRate is the open-loop alarm rate, per second.
	alarmRate = 500
)

var alarmQoS = qos.EventQoS{Priority: qos.PriorityCritical}

type command struct {
	env      *env
	gs, uav  *core.Node
	alarms   *events.Publisher
	mu       sync.Mutex
	alarmsTL *harness.Timeline // current phase's alarms
	wrong    int64             // guarded by mu
	dups     int64
	// completed counts calls and alarms completed in the current phase.
	completed atomic.Int64
}

func setupCommand(e *env) (*command, error) {
	c := &command{env: e}
	e.ops.chans[commandName] = kindCommand // before any traced node reads it
	e.ops.chans[alarmTopic] = kindAlarm
	bus := transport.NewBus()
	mk := func(id transport.NodeID) (*core.Node, error) {
		ep, err := bus.Endpoint(id)
		if err != nil {
			return nil, err
		}
		return e.node(ep)
	}
	var err error
	if c.gs, err = mk("gs"); err != nil {
		return c, err
	}
	if c.uav, err = mk("uav"); err != nil {
		return c, err
	}
	if err := c.uav.RPC().Register(commandName, "flight", commandType, returnType, qos.CallQoS{}, c.serve); err != nil {
		return c, err
	}
	if c.alarms, err = c.uav.Events().Offer(alarmTopic, "flight", alarmType, alarmQoS); err != nil {
		return c, err
	}
	c.uav.AnnounceNow()
	if err := e.waitFor("command provider and alarm topic", 10*time.Second, func() bool {
		return providers(c.gs, naming.KindFunction, commandName) && providers(c.gs, naming.KindEvent, alarmTopic)
	}); err != nil {
		return c, err
	}
	if _, err := c.gs.Events().Subscribe(alarmTopic, alarmType, alarmQoS, c.onAlarm); err != nil {
		return c, err
	}
	err = e.waitFor("alarm subscription", 10*time.Second, func() bool { return len(c.alarms.Subscribers()) == 1 })
	return c, err
}

func (c *command) close() { c.env.closeAll([]*core.Node{c.gs, c.uav}) }

// serve is the UAV's command handler: it checks the argument and returns
// the command's seq.
func (c *command) serve(args any) (any, error) {
	start := harness.Now()
	seq, err := checkCommand(c.env.key, args)
	if tr := c.env.tr; tr != nil {
		tr.Handler(opID(kindCommand, seq), start, harness.Now())
	}
	if err != nil {
		return nil, err
	}
	return seq, nil
}

func (c *command) onAlarm(v any, _ transport.NodeID) {
	start := harness.Now()
	seq, ok := checkAlarm(c.env.key, v)
	c.mu.Lock()
	tl := c.alarmsTL
	switch {
	case !ok || tl == nil || seq >= uint64(tl.Len()):
		c.wrong++
	case !tl.Complete(int(seq), start):
		c.dups++
	default:
		c.completed.Add(1)
	}
	c.mu.Unlock()
	if tr := c.env.tr; tr != nil {
		tr.Handler(opID(kindAlarm, seq), start, harness.Now())
	}
}

// commandRun is one measured phase: the closed-loop caller and the alarm
// generator run together for d.
type commandRun struct {
	calls, callsOK   int64
	rtt              []float64 // call round trips, µs
	rates            []float64 // calls/s per 100 ms window
	cpuPerOp         []float64 // CPU µs per completed call or alarm, per window
	alarms, alarmsOK int64
	alarmLat         []float64
	dups             int64
	alarmPub         *harness.Hist // events.Publish call time
	errs             []error
	cost             *cost
	win              harness.Window
	heapMB           float64
	depthMax         int64
}

func (r commandRun) ops() int64 { return r.callsOK + r.alarmsOK }

func (c *command) run(d time.Duration, sampleDepth bool, genLag *harness.Hist) commandRun {
	var r commandRun
	nAlarms := int(alarmRate * d.Seconds())
	tl := harness.NewTimeline(nAlarms)
	c.mu.Lock()
	c.alarmsTL, c.wrong, c.dups = tl, 0, 0
	c.mu.Unlock()
	c.completed.Store(0)
	nodes := []*core.Node{c.gs, c.uav}
	var depthOf *core.Node
	if sampleDepth {
		depthOf = c.gs
		r.win.Before = snapshots(nodes)
	}
	r.alarmPub = &harness.Hist{}
	mon := startMonitor(depthOf)
	r.cost = startCost()
	stopAt := harness.Now() + int64(d)

	var wg sync.WaitGroup
	var alarmErr error
	wg.Add(1)
	go func() { // alarm generator, open loop
		defer wg.Done()
		interval := int64(time.Second) / alarmRate
		t0 := harness.Now() + int64(time.Millisecond)
		ctx := context.Background()
		for i := 0; i < nAlarms; i++ {
			due := t0 + int64(i)*interval
			if wait := due - harness.Now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			tl.SetStart(i, due)
			ps := harness.Now()
			if genLag != nil {
				genLag.Observe(ps - due)
			}
			err := c.alarms.Publish(ctx, alarmValue(c.env.key, uint64(i)))
			pe := harness.Now()
			r.alarmPub.Observe(pe - ps)
			if tr := c.env.tr; tr != nil {
				op := opID(kindAlarm, uint64(i))
				tr.Record(harness.SpanEvPublish, op, "", ps, pe)
				tr.Record(harness.SpanGenOp, op, "", due, harness.Now())
			}
			if err != nil && alarmErr == nil {
				alarmErr = fmt.Errorf("alarm %d: %w", i, err)
			}
		}
	}()

	// The caller runs on this goroutine, closed loop: one call in flight.
	var winWG sync.WaitGroup
	winWG.Add(1)
	go func() {
		defer winWG.Done()
		r.rates, r.cpuPerOp = windows(stopAt, c.completed.Load)
	}()
	rtt := make([]float64, 0, 1<<16)
	var callErr error
	ctx := context.Background()
	for seq := uint64(0); ; seq++ {
		start := harness.Now()
		if start >= stopAt {
			break
		}
		r.calls++
		cs := harness.Now()
		ret, err := c.gs.RPC().Call(ctx, commandName, commandValue(c.env.key, seq), commandType, returnType, qos.CallQoS{})
		ce := harness.Now()
		if got, ok := ret.(uint64); err != nil || !ok || got != seq {
			if callErr == nil {
				callErr = fmt.Errorf("call %d: returned %v, error %v", seq, ret, err)
			}
			rtt = append(rtt, harness.Lost)
			continue
		}
		r.callsOK++
		c.completed.Add(1)
		rtt = append(rtt, float64(ce-cs)/1e3)
		if tr := c.env.tr; tr != nil {
			op := opID(kindCommand, seq)
			tr.Record(harness.SpanRPCCall, op, "", cs, ce)
			tr.Record(harness.SpanGenOp, op, "", start, harness.Now())
		}
	}
	wg.Wait()
	winWG.Wait()
	// Alarms still in flight get up to two seconds to arrive.
	deadline := time.Now().Add(2 * time.Second)
	for tl.Completed(nAlarms) < nAlarms && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.cost.end()
	r.heapMB, r.depthMax = mon.finish()
	if sampleDepth {
		r.win.After = snapshots(nodes)
	}
	c.mu.Lock()
	c.alarmsTL = nil
	r.dups = c.dups
	wrong := c.wrong
	c.mu.Unlock()
	r.rtt = rtt
	r.alarms = int64(nAlarms)
	r.alarmsOK = int64(tl.Completed(nAlarms))
	r.alarmLat = tl.Latencies(nAlarms)
	if wrong > 0 {
		r.errs = append(r.errs, fmt.Errorf("%d alarms arrived altered or unknown", wrong))
	}
	r.errs = append(r.errs, callErr, alarmErr)
	return r
}

func runCommand(o options) (*result, error) {
	key := runKey(o.seed)
	res := newResult()
	if !o.trace {
		var rates, cpu, heap, rtt []float64
		host := newHostRefs()
		setups, err := measureReps(func(measured bool) (float64, error) {
			start := time.Now()
			c, err := setupCommand(newEnv(key, clock.Real{}, nil))
			took := time.Since(start).Seconds()
			if err != nil || !measured {
				c.close()
				return took, err
			}
			r := c.run(o.seconds/wallReps, false, nil)
			c.close()
			res.account(r.calls+r.alarms, r.ops(), r.dups, r.errs...)
			k := host.next()
			rates = append(rates, scaled(r.rates, 1/k)...)
			cpu = append(cpu, scaled(r.cpuPerOp, k)...)
			heap = append(heap, r.heapMB)
			rtt = append(rtt, scaled(r.rtt, k)...)
			return took, nil
		})
		if err != nil {
			return nil, err
		}
		res.e2e(res.median50(rtt, latencyChunk), harness.Median(rates), harness.Median(cpu), harness.Median(heap),
			harness.Median(setups)*host.run())
		return res, nil
	}

	c, err := setupCommand(newEnv(key, clock.Real{}, nil))
	if err != nil {
		c.close()
		return nil, err
	}
	genLag := &harness.Hist{}
	prof, err := startProfile()
	if err != nil {
		c.close()
		return nil, err
	}
	pr := c.run(o.seconds/2, true, genLag)
	shares, samples, err := prof.stop()
	c.close()
	if err != nil {
		return nil, err
	}
	tr := harness.NewTracer(8)
	ct, err := setupCommand(newEnv(key, clock.Real{}, tr))
	if err != nil {
		ct.close()
		return nil, err
	}
	trun := ct.run(o.seconds/2, false, nil)
	ct.close()
	res.account(pr.calls+pr.alarms+trun.calls+trun.alarms, pr.ops()+trun.ops(), pr.dups+trun.dups,
		errors.Join(append(pr.errs, trun.errs...)...))
	layerMetrics(res.layers,
		plainHalf{ops: pr.ops(), cost: pr.cost, win: pr.win, shares: shares, samples: samples, depthMax: pr.depthMax, genLag: genLag},
		tracedHalf{ops: trun.ops(), cost: trun.cost, tr: tr})
	res.layers["events.publish_us_p50"] = pct(pr.alarmPub, 0.5, 1e3)
	res.tail(pr.rtt, latencyChunk)
	if p50, err := harness.Percentile(pr.alarmLat, 0.5); err == nil {
		res.layers["events.alarm_p50_us"] = finite(p50)
	}
	if p99, err := harness.Percentile(pr.alarmLat, 0.99); err == nil {
		res.layers["events.alarm_p99_us"] = finite(p99)
	}
	return res, res.dumpTrace(o, tr)
}
