package harness

import (
	"runtime"

	"uavmw/internal/encoding"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/scheduler"
	"uavmw/internal/transport"
)

// The tracing wrappers sit on the container's public plug points
// (core.WithDatagram, core.WithScheduler, core.WithEncoding) and time every
// call into the wrapped layer. Bookkeeping happens after the end timestamp,
// so a span holds only the wrapped call.

// Ops recovers benchmark operation ids: from a decoded frame on the wire
// and from a value passing through the encoding. 0 means "no operation".
type Ops interface {
	FrameOp(f *protocol.Frame) uint64
	ValueOp(t *presentation.Type, v any) uint64
}

// tracedTransport times Send/SendGroup as transport.send and the node's
// receive handler as transport.deliver (the hand-off into the ingress
// pipeline). Packets pass through unchanged, Owner included.
type tracedTransport struct {
	inner transport.Transport
	tr    *Tracer
	ops   Ops
}

// WrapTransport returns inner with its sends and deliveries traced. The
// result implements exactly the optional interfaces inner implements
// (Multicaster, BatchSender, PeerBook, Addressable), so the container
// takes the same code paths as with the bare transport.
func WrapTransport(inner transport.Transport, tr *Tracer, ops Ops) transport.Transport {
	t := &tracedTransport{inner: inner, tr: tr, ops: ops}
	type (
		M = transport.Multicaster
		B = transport.BatchSender
		P = transport.PeerBook
		A = transport.Addressable
	)
	m, _ := inner.(M)
	p, _ := inner.(P)
	a, _ := inner.(A)
	var b B
	if bs, ok := inner.(B); ok {
		b = tracedBatch{t, bs}
	}
	mask := 0
	for i, present := range []bool{m != nil, b != nil, p != nil, a != nil} {
		if present {
			mask |= 1 << i
		}
	}
	switch mask {
	case 0b0000:
		return t
	case 0b0001:
		return struct {
			*tracedTransport
			M
		}{t, m}
	case 0b0010:
		return struct {
			*tracedTransport
			B
		}{t, b}
	case 0b0011:
		return struct {
			*tracedTransport
			M
			B
		}{t, m, b}
	case 0b0100:
		return struct {
			*tracedTransport
			P
		}{t, p}
	case 0b0101:
		return struct {
			*tracedTransport
			M
			P
		}{t, m, p}
	case 0b0110:
		return struct {
			*tracedTransport
			B
			P
		}{t, b, p}
	case 0b0111:
		return struct {
			*tracedTransport
			M
			B
			P
		}{t, m, b, p}
	case 0b1000:
		return struct {
			*tracedTransport
			A
		}{t, a}
	case 0b1001:
		return struct {
			*tracedTransport
			M
			A
		}{t, m, a}
	case 0b1010:
		return struct {
			*tracedTransport
			B
			A
		}{t, b, a}
	case 0b1011:
		return struct {
			*tracedTransport
			M
			B
			A
		}{t, m, b, a}
	case 0b1100:
		return struct {
			*tracedTransport
			P
			A
		}{t, p, a}
	case 0b1101:
		return struct {
			*tracedTransport
			M
			P
			A
		}{t, m, p, a}
	case 0b1110:
		return struct {
			*tracedTransport
			B
			P
			A
		}{t, b, p, a}
	default:
		return struct {
			*tracedTransport
			M
			B
			P
			A
		}{t, m, b, p, a}
	}
}

func (t *tracedTransport) Node() transport.NodeID   { return t.inner.Node() }
func (t *tracedTransport) Join(group string) error  { return t.inner.Join(group) }
func (t *tracedTransport) Leave(group string) error { return t.inner.Leave(group) }
func (t *tracedTransport) Stats() transport.Stats   { return t.inner.Stats() }
func (t *tracedTransport) Close() error             { return t.inner.Close() }

func (t *tracedTransport) Send(to transport.NodeID, payload []byte) error {
	start := Now()
	err := t.inner.Send(to, payload)
	end := Now()
	t.tr.Observe(SpanSend, end-start)
	t.keepWire(SpanSend, payload, start, end)
	return err
}

func (t *tracedTransport) SendGroup(group string, payload []byte) error {
	start := Now()
	err := t.inner.SendGroup(group, payload)
	end := Now()
	t.tr.Observe(SpanSend, end-start)
	t.keepWire(SpanSend, payload, start, end)
	return err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(pkt transport.Packet) {
		start := Now()
		h(pkt)
		end := Now()
		t.tr.Observe(SpanDeliver, end-start)
		// The transport still holds its reference on the payload until
		// this handler returns, so decoding it here is safe.
		t.keepWire(SpanDeliver, pkt.Payload, start, end)
	})
}

// keepWire attributes one datagram's span to every operation it carries,
// unpacking MTBatch containers; frames of no operation are aggregated by
// frame type.
func (t *tracedTransport) keepWire(k SpanKind, raw []byte, start, end int64) {
	var f protocol.Frame
	if protocol.DecodeFrameInto(&f, raw) != nil {
		t.tr.Keep(k, 0, "undecodable", start, end, 0)
		return
	}
	if f.Type != protocol.MTBatch {
		t.keepFrame(k, &f, start, end)
		return
	}
	inner, err := protocol.DecodeBatch(f.Payload)
	if err != nil {
		t.tr.Keep(k, 0, "undecodable", start, end, 0)
		return
	}
	for _, r := range inner {
		if protocol.DecodeFrameInto(&f, r) == nil {
			t.keepFrame(k, &f, start, end)
		}
	}
}

func (t *tracedTransport) keepFrame(k SpanKind, f *protocol.Frame, start, end int64) {
	if op := t.ops.FrameOp(f); op != 0 {
		t.tr.Keep(k, op, "", start, end, 0)
		return
	}
	t.tr.Keep(k, 0, f.Type.String(), start, end, 0)
}

// tracedBatch forwards transport.BatchSender, tracing the batch call.
type tracedBatch struct {
	t  *tracedTransport
	bs transport.BatchSender
}

func (b tracedBatch) SendBatch(msgs []transport.BatchMessage) error {
	start := Now()
	err := b.bs.SendBatch(msgs)
	end := Now()
	if len(msgs) > 0 {
		per := (end - start) / int64(len(msgs))
		for _, m := range msgs {
			b.t.tr.Observe(SpanSend, per)
			b.t.keepWire(SpanSend, m.Payload, start, end)
		}
	}
	return err
}

// Encoding traces a payload encoding as encoding.marshal and
// encoding.unmarshal.
type Encoding struct {
	Inner encoding.Encoding
	Tr    *Tracer
	Ops   Ops
}

var _ encoding.Encoding = Encoding{}

// Name implements encoding.Encoding.
func (e Encoding) Name() string { return e.Inner.Name() }

// ID implements encoding.Encoding: the wire identifier stays the wrapped
// encoding's, so traced and untraced nodes interoperate.
func (e Encoding) ID() uint8 { return e.Inner.ID() }

// Marshal implements encoding.Encoding.
func (e Encoding) Marshal(t *presentation.Type, v any) ([]byte, error) {
	start := Now()
	b, err := e.Inner.Marshal(t, v)
	end := Now()
	e.Tr.Record(SpanMarshal, e.Ops.ValueOp(t, v), "other", start, end)
	return b, err
}

// Unmarshal implements encoding.Encoding.
func (e Encoding) Unmarshal(t *presentation.Type, data []byte) (any, error) {
	start := Now()
	v, err := e.Inner.Unmarshal(t, data)
	end := Now()
	var op uint64
	if err == nil {
		op = e.Ops.ValueOp(t, v)
	}
	e.Tr.Record(SpanUnmarshal, op, "other", start, end)
	return v, err
}

// Scheduler traces a scheduler.Pool: the time each job waits between
// Submit and its start (scheduler.wait, also kept per class) and the time
// it runs (scheduler.run). Jobs the pool refuses are counted.
type Scheduler struct {
	pool *scheduler.Pool
	tr   *Tracer
}

var _ scheduler.Scheduler = (*Scheduler)(nil)

// WrapScheduler traces pool. The container does not stop a scheduler it
// did not create, so the caller stops it after closing the node.
func WrapScheduler(pool *scheduler.Pool, tr *Tracer) *Scheduler {
	return &Scheduler{pool: pool, tr: tr}
}

// job is one traced job's attribution, filled in by Tracer.Handler when
// an application handler runs inside it.
type job struct {
	op       uint64
	overhead int64
}

// Submit implements scheduler.Scheduler.
func (s *Scheduler) Submit(p qos.Priority, fn scheduler.Job) error {
	submit := Now()
	err := s.pool.Submit(p, func() {
		start := Now()
		g := gid()
		rec := &job{}
		s.tr.active.Store(g, rec)
		runStart := Now()
		fn()
		end := Now()
		s.tr.active.Delete(g)
		if i := p.Index(); i >= 0 {
			s.tr.classWait[i].Observe(start - submit)
		}
		label := p.String()
		s.tr.Record(SpanWait, rec.op, label, submit, start)
		s.tr.Observe(SpanRun, end-runStart-rec.overhead)
		s.tr.Keep(SpanRun, rec.op, label, runStart, end, rec.overhead)
	})
	if err != nil {
		s.tr.rejected.Add(1)
	}
	return err
}

// Stop implements scheduler.Scheduler.
func (s *Scheduler) Stop() { s.pool.Stop() }

// Load is the container's default load figure for its own pool (backlog
// over queue capacity), for core.WithLoadProbe: the container computes it
// only when it owns a *scheduler.Pool.
func (s *Scheduler) Load() float64 {
	return float64(s.pool.Backlog()) / float64(scheduler.DefaultQueueCap)
}

// ClassWait returns the submit-to-start histogram of one scheduler class,
// over every traced pool.
func (t *Tracer) ClassWait(p qos.Priority) *Hist { return &t.classWait[p.Index()] }

// Rejected counts jobs the traced pools refused.
func (t *Tracer) Rejected() uint64 { return t.rejected.Load() }

// Handler records an application handler's span and, when it runs inside
// a traced scheduler job, attributes that job to op. The goroutine lookup
// is tracer overhead and is excluded from the job's self time.
func (t *Tracer) Handler(op uint64, start, end int64) {
	t.Record(SpanHandler, op, "app", start, end)
	if v, ok := t.active.Load(gid()); ok {
		j := v.(*job)
		j.op = op
		j.overhead += Now() - end
	}
}

// gid returns the calling goroutine's id from its stack header
// ("goroutine 123 [running]:").
func gid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
