// Package variables implements the paper's §4.1 communication primitive:
// best-effort publish/subscribe distribution of short structured values.
//
// Samples travel as single multicast datagrams; receivers tolerate loss.
// Three QoS mechanisms from the paper are implemented:
//
//   - validity: a sample may be served from the subscriber cache as long as
//     it is still valid ("subscribed services can receive previous values
//     as long as they are still valid");
//   - silence detection: if a publisher goes quiet past its declared
//     period, "the service container will warn of this timeout circumstance
//     to the affected services";
//   - guaranteed initial value: "the middleware has a mechanism that
//     guarantees an initial exact value" — implemented as a reliable
//     snapshot request/reply exchange with the publisher.
package variables

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/metrics"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
)

// Variable wire-path error codes.
var (
	codeVarShed  = uerr.Register("variables.dispatch_shed", uerr.CatAdmission)
	codeVarLeave = uerr.Register("variables.leave_group", uerr.CatResource)
)

// Errors.
var (
	// ErrStale reports a cached value past its validity.
	ErrStale = errors.New("variable value stale")
	// ErrNoValue reports a subscription that has not yet received data.
	ErrNoValue = errors.New("no value received yet")
	// ErrDuplicateName reports a second publisher registration of a name
	// within one container.
	ErrDuplicateName = errors.New("variable already published")
	// ErrTypeMismatch reports a subscriber/publisher type disagreement.
	ErrTypeMismatch = errors.New("variable type mismatch")
	// ErrClosed reports use of a closed handle.
	ErrClosed = errors.New("variable handle closed")
)

// Engine is the per-container variable runtime.
type Engine struct {
	f   fabric.Fabric
	reg *metrics.Registry

	mu   sync.Mutex
	pubs map[string]*Publisher
	subs map[string][]*Subscription
}

// New builds the engine for a container.
func New(f fabric.Fabric) *Engine {
	return &Engine{
		f:    f,
		reg:  fabric.MetricsOf(f),
		pubs: make(map[string]*Publisher),
		subs: make(map[string][]*Subscription),
	}
}

// sample payload layout (after the frame header):
//
//	i64 publish-time unix-nanos (publisher clock)
//	u32 validity milliseconds (0 = never expires)
//	u32 publisher incarnation (non-zero; resets subscriber seq filters)
//	raw encoded value

// appendSamplePayload appends the sample header and encoded body onto dst
// (typically a pooled buffer sized 16 + len(body)).
func appendSamplePayload(dst []byte, body []byte, ts time.Time, validity time.Duration, pub uint32) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(ts.UnixNano()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(validity/time.Millisecond))
	dst = binary.BigEndian.AppendUint32(dst, pub)
	return append(dst, body...)
}

func encodeSamplePayload(enc encoding.Encoding, t *presentation.Type, v any, ts time.Time, validity time.Duration, pub uint32) ([]byte, error) {
	body, err := enc.Marshal(t, v)
	if err != nil {
		return nil, err
	}
	//wirepath:alloc exact-size, GC-owned encode for callers that retain the result
	return appendSamplePayload(make([]byte, 0, 16+len(body)), body, ts, validity, pub), nil
}

func decodeSamplePayload(enc encoding.Encoding, t *presentation.Type, payload []byte) (v any, ts time.Time, validity time.Duration, pub uint32, err error) {
	r := encoding.NewReader(payload)
	tsn := r.Int64()
	valMs := r.Uint32()
	pub = r.Uint32()
	if err := r.Err(); err != nil {
		return nil, time.Time{}, 0, 0, err
	}
	body := r.Raw(r.Remaining())
	v, err = enc.Unmarshal(t, body)
	if err != nil {
		return nil, time.Time{}, 0, 0, err
	}
	return v, time.Unix(0, tsn), time.Duration(valMs) * time.Millisecond, pub, nil
}

// Offer registers a publisher for name with the given payload type and QoS.
func (e *Engine) Offer(name, service string, t *presentation.Type, q qos.VariableQoS) (*Publisher, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.Normalize()
	codec, err := encoding.Compile(t)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if _, dup := e.pubs[name]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("variables: %q: %w", name, ErrDuplicateName)
	}
	p := &Publisher{
		engine:  e,
		name:    name,
		service: service,
		typ:     t,
		codec:   codec,
		q:       q,
		id:      protocol.NewIncarnation(),
	}
	e.pubs[name] = p
	e.mu.Unlock()
	e.f.OfferChanged()
	return p, nil
}

// Publisher is the provider-side handle of one variable.
type Publisher struct {
	engine  *Engine
	name    string
	service string
	typ     *presentation.Type
	codec   *encoding.Codec
	q       qos.VariableQoS

	// id is this publisher's incarnation, carried in every sample so a
	// restarted publisher (fresh seq numbering) is not filtered out by
	// subscribers still holding the previous incarnation's high seq.
	id uint32

	mu       sync.Mutex
	last     any
	lastTS   time.Time
	lastSent time.Time
	seq      uint64
	closed   bool
}

// Name returns the variable name.
func (p *Publisher) Name() string { return p.name }

// Type returns the payload type.
func (p *Publisher) Type() *presentation.Type { return p.typ }

// Publish coerces v to the variable type and distributes it: one multicast
// datagram to remote subscribers plus direct (bypass) delivery to local
// ones. With OnChangeOnly, unchanged values inside the period are
// suppressed.
func (p *Publisher) Publish(v any) error {
	cv, err := presentation.Coerce(p.typ, v)
	if err != nil {
		return err
	}
	now := time.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("variables: %q: %w", p.name, ErrClosed)
	}
	if p.q.OnChangeOnly && p.lastTS != (time.Time{}) &&
		presentation.EqualValues(p.last, cv) &&
		(p.q.Period <= 0 || now.Sub(p.lastSent) < p.q.Period) {
		// Unchanged inside the refresh window: cache only.
		p.last = cv
		p.lastTS = now
		p.mu.Unlock()
		return nil
	}
	p.seq++
	seq := p.seq
	p.last = presentation.DeepCopy(cv)
	p.lastTS = now
	p.lastSent = now
	p.mu.Unlock()

	enc := p.engine.f.Encoding()
	body, err := enc.Marshal(p.typ, cv)
	if err != nil {
		return err
	}
	// Pooled sample assembly: the payload buffer and the frame both come
	// from pools and go back the moment SendGroup returns — the fabric
	// encodes synchronously and retains neither.
	payload := appendSamplePayload(bufpool.Get(16+len(body)), body, now, p.q.Validity, p.id)
	frame := protocol.GetFrame()
	*frame = protocol.Frame{
		Type:     protocol.MTSample,
		Encoding: enc.ID(),
		Priority: p.q.Priority,
		Channel:  p.name,
		Seq:      seq,
		Payload:  payload,
	}
	// Local bypass first: same-container subscribers get the value with
	// no encode/decode on the hot path (§4.4's bypass principle applied
	// to variables; experiment F2).
	p.engine.deliverLocal(p.name, cv, now, p.q.Validity)
	err = p.engine.f.SendGroup(fabric.VarGroup(p.name), frame)
	protocol.PutFrame(frame)
	bufpool.Put(payload)
	if err != nil {
		return fmt.Errorf("variables: publish %q: %w", p.name, err)
	}
	return nil
}

// Snapshot returns a copy of the last published value and its publication
// instant, or ok=false before the first Publish. This is the ground-side
// read API the gateway's last-value cache mirrors: a consumer joining late
// reads the current value without a wire exchange.
func (p *Publisher) Snapshot() (v any, ts time.Time, ok bool) {
	return p.snapshot()
}

// snapshot returns the last published value (for the snapshot protocol).
func (p *Publisher) snapshot() (any, time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastTS == (time.Time{}) {
		return nil, time.Time{}, false
	}
	return presentation.DeepCopy(p.last), p.lastTS, true
}

// Close withdraws the publisher.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.engine.mu.Lock()
	delete(p.engine.pubs, p.name)
	p.engine.mu.Unlock()
	p.engine.f.OfferChanged()
}

// Record returns the naming record for announcements.
func (p *Publisher) Record() naming.Record {
	return naming.Record{
		Kind:    naming.KindVariable,
		Name:    p.name,
		Service: p.service,
		Node:    p.engine.f.Self(),
		TypeSig: p.typ.String(),
	}
}

// SubscribeOptions tune a subscription.
type SubscribeOptions struct {
	// QoS is the subscriber's expectation; Period drives silence
	// detection and Validity overrides the publisher's per-sample
	// validity when longer... it does not: the effective validity is the
	// per-sample one. Subscriber Validity is used only when the sample
	// carries none.
	QoS qos.VariableQoS
	// RequireInitial requests the guaranteed initial exact value.
	RequireInitial bool
	// InitialTimeout bounds the snapshot exchange (default 1s).
	InitialTimeout time.Duration
	// OnSample, if set, is invoked (on the container scheduler) for every
	// received sample.
	OnSample func(v any, ts time.Time)
	// OnTimeout, if set, is invoked when the publisher has been silent
	// past the QoS deadline.
	OnTimeout func(silence time.Duration)
}

// Subscription is the consumer-side handle of one variable.
type Subscription struct {
	engine *Engine
	name   string
	typ    *presentation.Type
	opts   SubscribeOptions

	mu       sync.Mutex
	value    any
	ts       time.Time     // publisher-clock publication instant
	rxAt     time.Time     // receiver-clock arrival instant
	rxAge    time.Duration // sample age at arrival per the publisher clock (clamped >= 0)
	validity time.Duration
	haveVal  bool
	lastPub  uint32 // publisher incarnation of lastSeq
	lastSeq  uint64
	initCh   chan struct{} // closed when the first value lands
	timer    *time.Timer
	closed   bool

	samples  uint64
	timeouts uint64
}

// Subscribe attaches to variable name with the expected payload type. The
// subscriber joins the variable's multicast group immediately; if the
// publisher is known in the directory its type signature is verified.
func (e *Engine) Subscribe(name string, t *presentation.Type, opts SubscribeOptions) (*Subscription, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := opts.QoS.Validate(); err != nil {
		return nil, err
	}
	opts.QoS = opts.QoS.Normalize()
	if opts.InitialTimeout <= 0 {
		opts.InitialTimeout = time.Second
	}
	// Type compatibility against the announced publisher, when known.
	if recs := e.f.Directory().Lookup(naming.KindVariable, name); len(recs) > 0 {
		if recs[0].TypeSig != t.String() {
			return nil, fmt.Errorf("variables: %q publisher has %s, subscriber wants %s: %w",
				name, recs[0].TypeSig, t, ErrTypeMismatch)
		}
	}
	s := &Subscription{engine: e, name: name, typ: t, opts: opts, initCh: make(chan struct{})}

	e.mu.Lock()
	e.subs[name] = append(e.subs[name], s)
	e.mu.Unlock()

	if err := e.f.Join(fabric.VarGroup(name)); err != nil {
		s.Close()
		return nil, err
	}
	s.armTimer()

	if opts.RequireInitial {
		if err := s.requestInitial(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// requestInitial performs the guaranteed-initial-value exchange: a reliable
// MTSnapshotReq to the publisher, answered by a reliable MTSnapshotRep. A
// local publisher is served by direct bypass.
func (s *Subscription) requestInitial() error {
	e := s.engine
	// Local bypass.
	e.mu.Lock()
	pub := e.pubs[s.name]
	e.mu.Unlock()
	if pub != nil {
		if v, ts, ok := pub.snapshot(); ok {
			s.accept(v, ts, pub.q.Validity, 0, 0)
			return nil
		}
		return nil // no value yet; nothing to guarantee
	}

	rec, err := e.f.Directory().Select(naming.KindVariable, s.name, qos.BindDynamic, "")
	if err != nil {
		return fmt.Errorf("variables: initial value for %q: %w", s.name, err)
	}
	// Control frames ride the high egress lane: an initial-value request
	// must not queue behind sample or bulk traffic on a congested link.
	frame := &protocol.Frame{
		Type:     protocol.MTSnapshotReq,
		Encoding: e.f.Encoding().ID(),
		Priority: qos.PriorityHigh,
		Channel:  s.name,
		Seq:      e.f.NextSeq(),
	}
	// The reply arrives asynchronously via handleSnapshotRep; here we wait
	// for either a value or the timeout.
	done := make(chan error, 1)
	e.f.SendReliable(rec.Node, frame, fabric.ReliableOpts{}, func(err error) {
		if err != nil {
			done <- err
		} else {
			done <- nil
		}
	})
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("variables: snapshot request %q: %w", s.name, err)
		}
	case <-time.After(s.opts.InitialTimeout):
		return fmt.Errorf("variables: snapshot request %q: %w", s.name, protocol.ErrTimeout)
	}
	// Request delivered; wait for the value itself. accept closes initCh
	// on the first installed sample, so this wakes immediately instead of
	// polling.
	select {
	case <-s.initCh:
		return nil
	case <-time.After(s.opts.InitialTimeout):
		return fmt.Errorf("variables: no snapshot reply for %q: %w", s.name, protocol.ErrTimeout)
	}
}

// Get returns the freshest valid value. While the publisher is silent the
// previous value is served until its validity lapses, after which ErrStale
// is returned (§4.1). Sample age is the publisher-declared age at arrival
// (clamped at zero, so a publisher clock running ahead cannot make fresh
// samples immortal or negative-aged) plus receiver-side time since
// arrival — an old value installed via the snapshot path is correctly
// stale immediately, while cross-node skew cannot subtract age.
func (s *Subscription) Get() (any, time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveVal {
		return nil, time.Time{}, fmt.Errorf("variables: %q: %w", s.name, ErrNoValue)
	}
	if age := s.rxAge + time.Since(s.rxAt); s.validity > 0 && age > s.validity {
		return nil, s.ts, fmt.Errorf("variables: %q age %v: %w", s.name, age.Round(time.Millisecond), ErrStale)
	}
	return presentation.DeepCopy(s.value), s.ts, nil
}

// Snapshot returns a copy of the cached last value and its publisher-clock
// timestamp regardless of validity, or ok=false before the first sample.
// Unlike Get it never reports staleness: it is the last-value-cache read
// for consumers (the ground gateway fanning out to external clients) that
// want "the freshest thing known" semantics and judge age themselves.
func (s *Subscription) Snapshot() (v any, ts time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveVal {
		return nil, time.Time{}, false
	}
	return presentation.DeepCopy(s.value), s.ts, true
}

// Stats reports received sample and timeout counts.
func (s *Subscription) Stats() (samples, timeouts uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples, s.timeouts
}

// incarnationGrace bounds the reorder window inside which an older-stamped
// sample from a different publisher incarnation is treated as a delayed
// pre-restart straggler and dropped. Past it, the incarnation change is
// honored regardless of timestamps (cross-node publisher takeover with an
// unsynchronized clock).
const incarnationGrace = time.Second

// accept installs a sample into the cache and fires OnSample. pub is the
// publisher incarnation (0 for local bypass and snapshot replies, which
// bypass the reorder filter along with seq 0).
func (s *Subscription) accept(v any, ts time.Time, validity time.Duration, pub uint32, seq uint64) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if seq != 0 {
		if pub != s.lastPub {
			if s.haveVal && ts.Before(s.ts) && time.Since(s.rxAt) < incarnationGrace {
				// An older-stamped sample under a different incarnation
				// arriving moments after a fresh one is a reordered
				// pre-restart straggler: drop it rather than flip the
				// filter back and reinstall stale data. The guard is
				// bounded by receiver-side recency so a replacement
				// publisher on another node with a lagging clock is
				// locked out for at most incarnationGrace, not until
				// its clock catches up.
				s.mu.Unlock()
				return
			}
			// The publisher restarted (new incarnation, fresh seq
			// numbering): reset the reorder filter instead of
			// discarding every new sample until seq catches up.
			s.lastPub = pub
			s.lastSeq = 0
		}
		if seq <= s.lastSeq && s.haveVal {
			// Reordered stale sample: newer value already cached.
			s.mu.Unlock()
			return
		}
		s.lastSeq = seq
	}
	s.value = v
	s.ts = ts
	s.rxAt = time.Now()
	s.rxAge = s.rxAt.Sub(ts)
	if s.rxAge < 0 {
		s.rxAge = 0 // publisher clock ahead of ours
	}
	s.validity = validity
	if validity == 0 {
		s.validity = s.opts.QoS.Validity
	}
	if !s.haveVal {
		close(s.initCh) // wake a pending guaranteed-initial-value wait
	}
	s.haveVal = true
	s.samples++
	onSample := s.opts.OnSample
	s.mu.Unlock()

	s.resetTimer()
	if onSample != nil {
		uerr.Note(s.engine.reg, codeVarShed,
			s.engine.f.Schedule(s.opts.QoS.Priority, func() { onSample(v, ts) }),
			"sample callback "+s.name)
	}
}

// armTimer starts silence detection if the QoS declares a period.
func (s *Subscription) armTimer() {
	deadline := s.opts.QoS.SilenceDeadline()
	if deadline <= 0 || s.opts.OnTimeout == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.timer = time.AfterFunc(deadline, s.fireTimeout)
}

func (s *Subscription) resetTimer() {
	deadline := s.opts.QoS.SilenceDeadline()
	if deadline <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.timer == nil {
		return
	}
	s.timer.Reset(deadline)
}

func (s *Subscription) fireTimeout() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.timeouts++
	// Silence is measured on the receiver's clock from the last arrival,
	// not from the publisher's embedded timestamp: clock skew between
	// nodes must not produce negative or wildly wrong durations in the
	// warning.
	silence := time.Since(s.rxAt)
	if !s.haveVal {
		silence = s.opts.QoS.SilenceDeadline()
	}
	onTimeout := s.opts.OnTimeout
	// Re-arm so persistent silence keeps warning.
	if s.timer != nil {
		s.timer.Reset(s.opts.QoS.SilenceDeadline())
	}
	s.mu.Unlock()
	if onTimeout != nil {
		uerr.Note(s.engine.reg, codeVarShed,
			s.engine.f.Schedule(qos.PriorityHigh, func() { onTimeout(silence) }),
			"silence warning "+s.name)
	}
}

// Close detaches the subscription.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.mu.Unlock()

	e := s.engine
	e.mu.Lock()
	list := e.subs[s.name]
	for i, sub := range list {
		if sub == s {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(e.subs, s.name)
	} else {
		e.subs[s.name] = list
	}
	remaining := len(list)
	e.mu.Unlock()
	if remaining == 0 {
		uerr.Note(e.reg, codeVarLeave, e.f.Leave(fabric.VarGroup(s.name)), "leave "+s.name)
	}
}

// deliverLocal hands a published value to same-container subscribers.
func (e *Engine) deliverLocal(name string, v any, ts time.Time, validity time.Duration) {
	e.mu.Lock()
	subs := append([]*Subscription(nil), e.subs[name]...)
	e.mu.Unlock()
	for _, s := range subs {
		s.accept(presentation.DeepCopy(v), ts, validity, 0, 0)
	}
}

// HandleSample processes an incoming MTSample frame. Sample frames carry
// the per-publisher sequence, used to discard reordered stale samples.
func (e *Engine) HandleSample(from transport.NodeID, fr *protocol.Frame) {
	e.handleIncoming(fr, fr.Seq)
}

func (e *Engine) handleIncoming(fr *protocol.Frame, seq uint64) {
	e.mu.Lock()
	subs := append([]*Subscription(nil), e.subs[fr.Channel]...)
	e.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	enc := e.f.Encoding()
	if fr.Encoding != enc.ID() {
		return // foreign encoding; this node cannot decode
	}
	for _, s := range subs {
		v, ts, validity, pub, err := decodeSamplePayload(enc, s.typ, fr.Payload)
		if err != nil {
			continue // incompatible subscriber type; skip
		}
		s.accept(v, ts, validity, pub, seq)
	}
}

// HandleSnapshotReq serves a reliable snapshot of a local publisher.
func (e *Engine) HandleSnapshotReq(from transport.NodeID, fr *protocol.Frame) {
	e.mu.Lock()
	pub := e.pubs[fr.Channel]
	e.mu.Unlock()
	if pub == nil {
		return
	}
	v, ts, ok := pub.snapshot()
	if !ok {
		return // nothing published yet
	}
	enc := e.f.Encoding()
	payload, err := encodeSamplePayload(enc, pub.typ, v, ts, pub.q.Validity, pub.id)
	if err != nil {
		return
	}
	reply := &protocol.Frame{
		Type:     protocol.MTSnapshotRep,
		Encoding: enc.ID(),
		Priority: qos.PriorityHigh,
		Channel:  fr.Channel,
		Seq:      e.f.NextSeq(),
		Payload:  payload,
	}
	e.f.SendReliable(from, reply, fabric.ReliableOpts{}, nil)
}

// HandleSnapshotRep installs a snapshot reply into waiting subscriptions.
// Snapshot frames carry node-global sequence numbers, not the publisher's
// sample sequence, so they bypass the reorder filter (seq 0).
func (e *Engine) HandleSnapshotRep(from transport.NodeID, fr *protocol.Frame) {
	e.handleIncoming(fr, 0)
}

// Records lists this node's published variables for announcements.
func (e *Engine) Records() []naming.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]naming.Record, 0, len(e.pubs))
	for _, p := range e.pubs {
		out = append(out, p.Record())
	}
	return out
}

// PublisherCount reports registered publishers (diagnostics).
func (e *Engine) PublisherCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pubs)
}
