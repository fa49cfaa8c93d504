package harness

import (
	"bytes"
	"errors"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"uavmw/internal/metrics"
	"uavmw/internal/transport"
)

func seqFloats(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	if _, err := Percentile(seqFloats(999), 0.99); !errors.Is(err, ErrThinTail) {
		t.Fatalf("p99 of 999 samples: err %v, want ErrThinTail", err)
	}
	v, err := Percentile(seqFloats(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (ten samples beyond)", v, err)
	}
	if _, err := Percentile(seqFloats(19), 0.5); !errors.Is(err, ErrThinTail) {
		t.Fatalf("p50 of 19 samples: err %v, want ErrThinTail", err)
	}
	if v, err := Percentile(seqFloats(20), 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestChunkPercentileIsMedianOfChunks(t *testing.T) {
	// Three chunks of 1000 whose p99s are 990, 1990 and 2990; a short
	// tail chunk is dropped.
	var xs []float64
	for c := 0; c < 3; c++ {
		for i := 1; i <= 1000; i++ {
			xs = append(xs, float64(c*1000+i))
		}
	}
	xs = append(xs, 1e9)
	v, err := ChunkPercentile(xs, 1000, 0.99)
	if err != nil || v != 1990 {
		t.Fatalf("chunked p99 = %v, %v; want 1990", v, err)
	}
	if _, err := ChunkPercentile(xs[:999], 1000, 0.99); !errors.Is(err, ErrThinTail) {
		t.Fatalf("no full chunk: err %v, want ErrThinTail", err)
	}
}

func TestTimelineCountsLostOperationsBeyondEveryLimit(t *testing.T) {
	const n = 1000
	tl := NewTimeline(n)
	for i := 0; i < n; i++ {
		tl.SetStart(i, int64(i)*1000)
		if i%50 == 0 {
			continue // 20 operations never complete
		}
		if !tl.Complete(i, int64(i)*1000+5000) {
			t.Fatalf("first completion of %d reported as duplicate", i)
		}
	}
	if tl.Complete(1, 1) {
		t.Fatal("second completion of op 1 not reported as duplicate")
	}
	if got := tl.Completed(n); got != n-20 {
		t.Fatalf("completed %d, want %d", got, n-20)
	}
	lat := tl.Latencies(n)
	if lat[1] != 5 || !math.IsInf(lat[0], 1) {
		t.Fatalf("latency of op 1 = %vµs, of lost op 0 = %v; want 5 and +Inf", lat[1], lat[0])
	}
	p50, _ := Percentile(append([]float64(nil), lat...), 0.5)
	p99, _ := Percentile(lat, 0.99)
	if p50 != 5 || !math.IsInf(p99, 1) {
		t.Fatalf("p50 %v p99 %v; want 5 and +Inf (2%% lost exceeds every p99 limit)", p50, p99)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []Span{
		{Kind: SpanGenOp, Op: 7, Start: 0, End: 100},
		{Kind: SpanVarPublish, Op: 7, Start: 10, End: 60},
		{Kind: SpanMarshal, Op: 7, Start: 20, End: 30},
		// Runs on another goroutine, starts inside publish, outlives it.
		{Kind: SpanSend, Op: 7, Start: 50, End: 150},
		// Another operation overlapping in time is not a child.
		{Kind: SpanMarshal, Op: 8, Start: 0, End: 1000},
		// Same start as its parent but ending later: the parent's parent.
		{Kind: SpanRun, Op: 9, Start: 0, End: 50, Overhead: 5},
		{Kind: SpanHandler, Op: 9, Start: 0, End: 20},
	}
	got := SelfTimes(spans)
	want := []int64{
		100 - 90,     // gen.op: publish [10,60) and send [50,100) cover [10,100)
		50 - 10 - 10, // publish: marshal [20,30) and send [50,60)
		10,           // marshal
		100,          // send: nothing starts inside it
		1000,         // the other operation's marshal
		50 - 20 - 5,  // run: handler [0,20) and its own overhead
		20,           // handler
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%v op %d): self %d, want %d", i, spans[i].Kind, spans[i].Op, got[i], want[i])
		}
	}
}

func TestBucketChargesInnermostMiddlewareFrame(t *testing.T) {
	cases := []struct {
		funcs []string
		want  string
	}{
		{[]string{"runtime.Stack", "uavmw/internal/clock.gid", "uavmw/internal/clock.(*Virtual).Sleep", "uavmw/internal/core.(*Node).discoveryLoop"}, "clock"},
		{[]string{"runtime.mallocgc", "uavmw/internal/encoding.Marshal", "uavmw/internal/variables.(*Publisher).Publish", "main.(*fanin).publish"}, "encoding"},
		{[]string{"uavmw/internal/presentation/ptest.Gen"}, "presentation"},
		{[]string{"runtime.mapassign", "main.telemetryValue", "main.main"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, c := range cases {
		if got := Bucket(c.funcs); got != c.want {
			t.Errorf("Bucket(%v) = %q, want %q", c.funcs, got, c.want)
		}
	}
	shares, n := Shares([]Stack{
		{Funcs: cases[0].funcs, Count: 3},
		{Funcs: cases[4].funcs, Count: 1},
	})
	if n != 4 || shares["clock"] != 0.75 || shares["runtime"] != 0.25 {
		t.Fatalf("shares %v of %d samples; want clock 0.75, runtime 0.25 of 4", shares, n)
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inBurn int64
	for _, s := range stacks {
		total += s.Count
		for _, fn := range s.Funcs {
			if strings.HasSuffix(fn, "harness.burn") {
				inBurn += s.Count
				break
			}
		}
	}
	if total == 0 || inBurn*2 < total {
		t.Fatalf("%d of %d samples in burn; want most", inBurn, total)
	}
	if _, err := ParseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

func TestHistPercentileBoundsRelativeError(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	for _, p := range []float64{0.5, 0.99} {
		got, err := h.Percentile(p)
		want := p * 100000
		if err != nil || float64(got) < want || float64(got) > want*(1+1.0/subBuckets) {
			t.Errorf("p%v = %d, %v; want within 1/16 above %v", p*100, got, err, want)
		}
	}
	var thin Hist
	for v := int64(0); v < 999; v++ {
		thin.Observe(v)
	}
	if _, err := thin.Percentile(0.99); !errors.Is(err, ErrThinTail) {
		t.Fatalf("p99 of 999 values: err %v, want ErrThinTail", err)
	}
}

func TestWindowDeltaSumsSeriesAcrossNodes(t *testing.T) {
	a, b := metrics.NewRegistry(), metrics.NewRegistry()
	a.Counter("arq", "sent").Add(10)
	b.Counter("arq", "sent").Add(5)
	a.Counter("egress", "sent", metrics.L("class", "bulk")).Add(2)
	a.Counter("egress", "sent", metrics.L("class", "normal")).Add(3)
	a.Histogram("ingress", "batch_frames").Observe(4)
	w := Window{Before: []metrics.Snapshot{a.Snapshot(), b.Snapshot()}}
	a.Counter("arq", "sent").Add(7)
	b.Counter("arq", "sent").Add(3)
	a.Counter("arq", "retransmits").Add(2)
	a.Counter("egress", "sent", metrics.L("class", "bulk")).Add(1)
	a.Histogram("ingress", "batch_frames").Observe(2)
	a.Histogram("ingress", "batch_frames").Observe(6)
	w.After = []metrics.Snapshot{a.Snapshot(), b.Snapshot()}
	if d := w.Delta("arq", "sent"); d != 10 {
		t.Errorf("arq.sent delta %v, want 10", d)
	}
	if r := w.Ratio("arq", "retransmits", "arq", "sent"); r != 0.2 {
		t.Errorf("retransmit ratio %v, want 0.2", r)
	}
	if d := w.Delta("egress", "sent"); d != 1 {
		t.Errorf("egress.sent delta over labeled series %v, want 1", d)
	}
	if m := w.HistMean("ingress", "batch_frames"); m != 4 {
		t.Errorf("batch_frames mean over the window %v, want 4", m)
	}
	if r := w.Ratio("arq", "failed", "arq", "missing"); r != 0 {
		t.Errorf("ratio over absent families %v, want 0", r)
	}
}

// fakeTransport implements the optional transport interfaces selected by
// its flags through the wrapper's own combinations.
type fakeTransport struct{ transport.Transport }

func (fakeTransport) NativeMulticast() bool                    { return true }
func (fakeTransport) SendBatch([]transport.BatchMessage) error { return nil }
func (fakeTransport) AddPeer(transport.NodeID, string) error   { return nil }
func (fakeTransport) RemovePeer(transport.NodeID)              {}
func (fakeTransport) LocalAddr() string                        { return "fake" }

func TestWrapTransportForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	full := fakeTransport{}
	type (
		M = transport.Multicaster
		B = transport.BatchSender
		P = transport.PeerBook
		A = transport.Addressable
	)
	for mask := 0; mask < 16; mask++ {
		// Build an inner transport with exactly the interfaces in mask.
		var inner transport.Transport
		base := struct{ transport.Transport }{full}
		switch mask {
		case 0:
			inner = base
		case 1:
			inner = struct {
				transport.Transport
				M
			}{base, full}
		case 2:
			inner = struct {
				transport.Transport
				B
			}{base, full}
		case 3:
			inner = struct {
				transport.Transport
				M
				B
			}{base, full, full}
		case 4:
			inner = struct {
				transport.Transport
				P
			}{base, full}
		case 5:
			inner = struct {
				transport.Transport
				M
				P
			}{base, full, full}
		case 6:
			inner = struct {
				transport.Transport
				B
				P
			}{base, full, full}
		case 7:
			inner = struct {
				transport.Transport
				M
				B
				P
			}{base, full, full, full}
		case 8:
			inner = struct {
				transport.Transport
				A
			}{base, full}
		case 9:
			inner = struct {
				transport.Transport
				M
				A
			}{base, full, full}
		case 10:
			inner = struct {
				transport.Transport
				B
				A
			}{base, full, full}
		case 11:
			inner = struct {
				transport.Transport
				M
				B
				A
			}{base, full, full, full}
		case 12:
			inner = struct {
				transport.Transport
				P
				A
			}{base, full, full}
		case 13:
			inner = struct {
				transport.Transport
				M
				P
				A
			}{base, full, full, full}
		case 14:
			inner = struct {
				transport.Transport
				B
				P
				A
			}{base, full, full, full}
		default:
			inner = struct {
				transport.Transport
				M
				B
				P
				A
			}{base, full, full, full, full}
		}
		w := WrapTransport(inner, NewTracer(1), nil)
		has := func(x any) [4]bool {
			_, m := x.(M)
			_, b := x.(B)
			_, p := x.(P)
			_, a := x.(A)
			return [4]bool{m, b, p, a}
		}
		if got, want := has(w), has(inner); got != want {
			t.Errorf("mask %04b: wrapped implements %v, inner %v", mask, got, want)
		}
	}
}
