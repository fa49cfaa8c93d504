package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// SpanKind names one layer boundary the traced run records.
type SpanKind uint8

// The spans of one operation, in causal order: the generator issues it
// through a primitive's API, the payload is encoded and sent, delivered to
// the receiving container, queued and run on its scheduler, decoded and
// handed to the application. The gateway's consumer writes are recorded
// without an operation.
const (
	SpanGenOp SpanKind = iota
	SpanVarPublish
	SpanEvPublish
	SpanRPCCall
	SpanMarshal
	SpanSend
	SpanDeliver
	SpanWait
	SpanRun
	SpanUnmarshal
	SpanHandler
	SpanGatewayWrite
	NumSpanKinds
)

var spanNames = [NumSpanKinds]string{
	"gen.op", "variables.publish", "events.publish", "rpc.call",
	"encoding.marshal", "transport.send", "transport.deliver",
	"scheduler.wait", "scheduler.run", "encoding.unmarshal", "app.handler",
	"gateway.write",
}

// String returns the span's dotted name.
func (k SpanKind) String() string { return spanNames[k] }

// Span is one timed call at a layer boundary. Op identifies the benchmark
// operation it served (0 for none); Overhead is tracer time spent inside
// the span that belongs to no layer and is excluded from its self time.
type Span struct {
	Kind     SpanKind `json:"-"`
	Name     string   `json:"name"`
	Op       uint64   `json:"op"`
	Start    int64    `json:"start_ns"`
	End      int64    `json:"end_ns"`
	Overhead int64    `json:"overhead_ns,omitempty"`
}

// untagged aggregates spans that carry no operation, per kind and label
// (a frame type, a scheduler class).
type untagged struct {
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// Tracer stores spans in memory for the traced run. Every call is timed
// into a per-kind histogram; spans of sampled operations (op % SampleEvery
// == 0) are kept whole for the self-time computation; spans of no
// operation are aggregated per label. Nothing is written until Dump.
type Tracer struct {
	sampleEvery uint64
	hist        [NumSpanKinds]Hist

	mu    sync.Mutex
	spans []Span
	untag map[untagKey]*untagged

	// active maps a scheduler worker goroutine to the traced job it is
	// running, so an application handler can name the job's operation.
	active sync.Map
	// classWait is scheduler.wait per class (qos.Priority.Index()).
	classWait [5]Hist
	rejected  atomic.Uint64
}

type untagKey struct {
	kind  SpanKind
	label string
}

// NewTracer keeps whole spans for one operation in sampleEvery.
func NewTracer(sampleEvery uint64) *Tracer {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &Tracer{sampleEvery: sampleEvery, untag: make(map[untagKey]*untagged)}
}

// Hist returns the duration histogram of one span kind.
func (t *Tracer) Hist(k SpanKind) *Hist { return &t.hist[k] }

// Sampled reports whether op's spans are kept whole.
func (t *Tracer) Sampled(op uint64) bool { return op != 0 && op%t.sampleEvery == 0 }

// Observe adds one call's duration to the kind's histogram.
func (t *Tracer) Observe(k SpanKind, ns int64) { t.hist[k].Observe(ns) }

// Record times one call: Observe plus Keep.
func (t *Tracer) Record(k SpanKind, op uint64, label string, start, end int64) {
	t.hist[k].Observe(end - start)
	t.Keep(k, op, label, start, end, 0)
}

// Keep stores a sampled operation's span, or aggregates a span of no
// operation (op 0) under label. overhead is tracer work inside the span.
func (t *Tracer) Keep(k SpanKind, op uint64, label string, start, end, overhead int64) {
	if op == 0 {
		t.mu.Lock()
		key := untagKey{k, label}
		u := t.untag[key]
		if u == nil {
			u = &untagged{}
			t.untag[key] = u
		}
		u.Count++
		u.TotalNS += end - start - overhead
		t.mu.Unlock()
		return
	}
	if !t.Sampled(op) {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Kind: k, Name: k.String(), Op: op, Start: start, End: end, Overhead: overhead})
	t.mu.Unlock()
}

// Spans returns a copy of the stored spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// UntaggedCount is the number of recorded spans that served no operation.
func (t *Tracer) UntaggedCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, u := range t.untag {
		n += u.Count
	}
	return n
}

// SelfTimes returns each stored span's self time in nanoseconds, indexed
// like spans: its duration minus the part of its interval covered by its
// child spans and minus its own overhead. A child is another span of the
// same operation that started inside the parent's interval (a span that
// starts together with the parent but ends after it is the parent's
// parent, not its child). Children may run on other goroutines; only the
// overlap with the parent's interval is subtracted.
func SelfTimes(spans []Span) []int64 {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Op != sb.Op {
			return sa.Op < sb.Op
		}
		return sa.Start < sb.Start
	})
	self := make([]int64, len(spans))
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && spans[idx[hi]].Op == spans[idx[lo]].Op {
			hi++
		}
		group := idx[lo:hi]
		for _, pi := range group {
			p := spans[pi]
			var cover [][2]int64
			for _, ci := range group {
				c := spans[ci]
				if ci == pi || c.Start < p.Start || c.Start >= p.End {
					continue
				}
				if c.Start == p.Start && c.End > p.End {
					continue
				}
				end := c.End
				if end > p.End {
					end = p.End
				}
				cover = append(cover, [2]int64{c.Start, end})
			}
			s := p.End - p.Start - unionLen(cover) - p.Overhead
			if s < 0 {
				s = 0
			}
			self[pi] = s
		}
		lo = hi
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// SelfTimeP50 returns, per span kind present, the median self time in
// microseconds over the stored spans.
func SelfTimeP50(spans []Span) map[SpanKind]float64 {
	self := SelfTimes(spans)
	byKind := make(map[SpanKind][]float64)
	for i, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], float64(self[i])/1e3)
	}
	out := make(map[SpanKind]float64, len(byKind))
	for k, xs := range byKind {
		out[k] = Median(xs)
	}
	return out
}

// Dump writes the stored spans and the per-label aggregates of spans
// without an operation as one JSON document.
func (t *Tracer) Dump(w io.Writer) error {
	t.mu.Lock()
	untag := make(map[string]*untagged, len(t.untag))
	for k, u := range t.untag {
		untag[k.kind.String()+"/"+k.label] = u
	}
	doc := struct {
		SampleEvery uint64               `json:"sample_every"`
		Spans       []Span               `json:"spans"`
		Untagged    map[string]*untagged `json:"untagged"`
	}{t.sampleEvery, t.spans, untag}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("harness: encode spans: %w", err)
	}
	_, err = w.Write(b)
	return err
}
