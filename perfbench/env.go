package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/encoding"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"

	"uavmw/perfbench/harness"
)

// env is what one deployment of a workload is built with: the run's
// payload key, the clock, and — in the traced half of a traced run — the
// tracer whose wrappers every container is built on.
type env struct {
	key   uint64
	clk   clock.Clock
	tr    *harness.Tracer // nil: plain containers
	ops   *opTable
	pools []*harness.Scheduler
}

func newEnv(key uint64, clk clock.Clock, tr *harness.Tracer) *env {
	return &env{key: key, clk: clk, tr: tr, ops: newOpTable()}
}

// node builds one container on tp. Traced containers get the tracing
// transport, a traced copy of the default scheduler pool (with the load
// probe the container would compute for its own pool) and the traced
// binary encoding.
func (e *env) node(tp transport.Transport, extra ...core.NodeOption) (*core.Node, error) {
	opts := []core.NodeOption{core.WithClock(e.clk)}
	if e.tr != nil {
		s := harness.WrapScheduler(scheduler.NewPool(scheduler.WithPoolClock(e.clk)), e.tr)
		e.pools = append(e.pools, s)
		tp = harness.WrapTransport(tp, e.tr, e.ops)
		opts = append(opts,
			core.WithScheduler(s),
			core.WithLoadProbe(s.Load),
			core.WithEncoding(harness.Encoding{Inner: encoding.Binary{}, Tr: e.tr, Ops: e.ops}))
	}
	opts = append(opts, core.WithDatagram(tp))
	return core.NewNode(append(opts, extra...)...)
}

// closeAll closes the containers, then the traced pools the containers do
// not own.
func (e *env) closeAll(nodes []*core.Node) {
	for _, n := range nodes {
		if n != nil {
			_ = n.Close()
		}
	}
	for _, p := range e.pools {
		p.Stop()
	}
	e.pools = nil
}

// waitFor polls cond until it holds or timeout passes. On the wall clock
// it yields between polls instead of sleeping, so set-up time is not
// rounded up to the timer's resolution; on a virtual clock it sleeps, which
// lets simulated time advance.
func (e *env) waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := e.clk.Now().Add(timeout)
	_, real := e.clk.(clock.Real)
	for !cond() {
		if e.clk.Now().After(deadline) {
			return fmt.Errorf("setup: %s not visible after %v", what, timeout)
		}
		if real {
			runtime.Gosched()
		} else {
			e.clk.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// providers reports whether node's directory lists a provider of every name.
func providers(node *core.Node, kind naming.Kind, names ...string) bool {
	for _, n := range names {
		if node.Directory().ProviderCount(kind, n) == 0 {
			return false
		}
	}
	return true
}

// snapshots exports every node's registry.
func snapshots(nodes []*core.Node) []metrics.Snapshot {
	out := make([]metrics.Snapshot, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.MetricsSnapshot())
	}
	return out
}

// monitor samples process-wide figures while a phase runs: the heap in
// use and, when asked, the deepest ingress shard queue of one node.
type monitor struct {
	rt      *harness.Runtime
	depthOf *core.Node
	stop    chan struct{}
	done    sync.WaitGroup
	// Written by the sampling goroutine, read after done.Wait.
	peaks    []float64 // peak heap in use per monitorWindow, bytes
	winPeak  uint64
	winN     int
	depthMax int64
}

// The monitor samples every monitorEvery and reports heap peaks per
// window of monitorWindow samples (half a second).
const (
	monitorEvery  = 5 * time.Millisecond
	monitorWindow = 100
)

// startMonitor begins sampling on its own goroutine (on the wall clock,
// also in a virtual run: it measures the host, not the mission).
func startMonitor(depthOf *core.Node) *monitor {
	m := &monitor{rt: harness.NewRuntime(), depthOf: depthOf, stop: make(chan struct{})}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(monitorEvery)
		defer t.Stop()
		for i := 0; ; i++ {
			m.sample(i%4 == 0)
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *monitor) sample(depth bool) {
	if h := m.rt.Read().HeapInuse; h > m.winPeak {
		m.winPeak = h
	}

	if m.winN++; m.winN == monitorWindow {
		m.peaks = append(m.peaks, float64(m.winPeak))
		m.winPeak, m.winN = 0, 0
	}
	if !depth || m.depthOf == nil {
		return
	}
	for _, f := range m.depthOf.Metrics().Snapshot().Families {
		if f.Component != "ingress" || f.Name != "queue_depth" {
			continue
		}
		for _, s := range f.Series {
			if s.Gauge != nil && *s.Gauge > m.depthMax {
				m.depthMax = *s.Gauge
			}
		}
	}
}

// finish stops sampling and returns the median over windows of the peak
// heap in use, in MB, and the deepest ingress queue seen.
func (m *monitor) finish() (heapMB float64, depthMax int64) {
	close(m.stop)
	m.done.Wait()
	peaks := m.peaks
	if len(peaks) == 0 {
		peaks = []float64{float64(m.winPeak)}
	}
	return harness.Median(peaks) / (1 << 20), m.depthMax
}

// profiler wraps runtime/pprof's CPU profile into an in-memory buffer.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each package's share of its samples
// and the sample count.
func (p *profiler) stop() (map[string]float64, int64, error) {
	pprof.StopCPUProfile()
	stacks, err := harness.ParseProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares, n := harness.Shares(stacks)
	return shares, n, nil
}

// cost is the process CPU and runtime counters over a measured window.
type cost struct {
	rt       *harness.Runtime
	cpu0     time.Duration
	rt0, rt1 harness.RuntimeStats
	cpu      time.Duration
}

func startCost() *cost {
	c := &cost{rt: harness.NewRuntime()}
	c.rt0 = c.rt.Read()
	c.cpu0 = harness.CPUTime()
	return c
}

func (c *cost) end() {
	c.cpu = harness.CPUTime() - c.cpu0
	c.rt1 = c.rt.Read()
}

// perOp is CPU microseconds per completed operation.
func (c *cost) perOp(ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(c.cpu) / 1e3 / float64(ops)
}

// windows samples a completed-operation counter and the process CPU time
// every 100 ms until stopAt, skipping a 200 ms warm-up, and returns each
// window's completion rate (per second) and CPU microseconds per
// completed operation. Medians over these windows are robust to a few
// stretches the host disturbed.
func windows(stopAt int64, done func() int64) (rates, cpuPerOp []float64) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	warm := harness.Now() + int64(200*time.Millisecond)
	lastAt, last, lastCPU := harness.Now(), done(), harness.CPUTime()
	for harness.Now() < stopAt {
		<-t.C
		at, n, c := harness.Now(), done(), harness.CPUTime()
		if lastAt >= warm && at <= stopAt && n > last {
			rates = append(rates, float64(n-last)/(float64(at-lastAt)/1e9))
			cpuPerOp = append(cpuPerOp, float64(c-lastCPU)/1e3/float64(n-last))
		}
		lastAt, last, lastCPU = at, n, c
	}
	return rates, cpuPerOp
}
