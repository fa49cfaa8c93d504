package events

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/encoding"
	"uavmw/internal/fabric"
	"uavmw/internal/naming"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// fakeFabric runs handlers inline; reliable sends succeed (or fail, when
// failNodes matches) immediately.
type fakeFabric struct {
	self transport.NodeID
	dir  *naming.Directory
	seq  atomic.Uint64

	// offerChanges counts OfferChanged notifications (the container would
	// broadcast a discovery delta for each).
	offerChanges atomic.Uint64

	mu        sync.Mutex
	reliable  []*protocol.Frame
	reliantTo []transport.NodeID // destination of each reliable frame
	group     []*protocol.Frame  // group-addressed frames
	groupName []string           // group of each group frame
	joined    map[string]int     // Join minus Leave per group
	failNodes map[transport.NodeID]bool
}

func newFakeFabric(self transport.NodeID) *fakeFabric {
	return &fakeFabric{
		self:      self,
		dir:       naming.NewDirectory(time.Minute),
		joined:    make(map[string]int),
		failNodes: make(map[transport.NodeID]bool),
	}
}

func (f *fakeFabric) Self() transport.NodeID       { return f.self }
func (f *fakeFabric) Encoding() encoding.Encoding  { return encoding.Binary{} }
func (f *fakeFabric) Directory() *naming.Directory { return f.dir }
func (f *fakeFabric) NextSeq() uint64              { return f.seq.Add(1) }
func (f *fakeFabric) OfferChanged()                { f.offerChanges.Add(1) }
func (f *fakeFabric) Schedule(_ qos.Priority, job func()) error {
	job()
	return nil
}
func (f *fakeFabric) SendBestEffort(transport.NodeID, *protocol.Frame) error { return nil }

func (f *fakeFabric) SendGroup(group string, fr *protocol.Frame) error {
	cp := *fr
	cp.Payload = append([]byte(nil), fr.Payload...)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.group = append(f.group, &cp)
	f.groupName = append(f.groupName, group)
	return nil
}

func (f *fakeFabric) Join(group string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joined[group]++
	return nil
}

func (f *fakeFabric) Leave(group string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joined[group]--
	return nil
}

func (f *fakeFabric) SendReliable(to transport.NodeID, fr *protocol.Frame, _ fabric.ReliableOpts, done func(error)) {
	// Fabric contract: the frame may be pooled by the caller after the
	// call returns, so retain a copy, not the original.
	cp := *fr
	cp.Payload = append([]byte(nil), fr.Payload...)
	f.mu.Lock()
	f.reliable = append(f.reliable, &cp)
	f.reliantTo = append(f.reliantTo, to)
	fail := f.failNodes[to]
	f.mu.Unlock()
	if done != nil {
		if fail {
			done(errors.New("injected send failure"))
		} else {
			done(nil)
		}
	}
}

func (f *fakeFabric) reliableCount(mt protocol.MsgType) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, fr := range f.reliable {
		if fr.Type == mt {
			n++
		}
	}
	return n
}

var alertType = presentation.MustParse("{code:u32}")

func TestOfferValidation(t *testing.T) {
	e := New(newFakeFabric("n"))
	if _, err := e.Offer("t", "svc", presentation.StructOf(), qos.EventQoS{}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := e.Offer("t", "svc", nil, qos.EventQoS{AckTimeout: -time.Millisecond}); err == nil {
		t.Error("negative ack timeout accepted")
	}
	if _, err := e.Offer("t", "svc", alertType, qos.EventQoS{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Offer("t", "svc", alertType, qos.EventQoS{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestLocalDeliveryBypass(t *testing.T) {
	f := newFakeFabric("n")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Value
	if _, err := e.Subscribe("t", alertType, qos.EventQoS{},
		func(v any, from transport.NodeID) { got.Store(v) }); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(context.Background(), map[string]any{"code": 7}); err != nil {
		t.Fatal(err)
	}
	v := got.Load()
	if v == nil || v.(map[string]any)["code"] != uint32(7) {
		t.Fatalf("local delivery = %v", v)
	}
	// Purely local: no reliable frames.
	if n := f.reliableCount(protocol.MTEvent); n != 0 {
		t.Errorf("local publish sent %d event frames", n)
	}
}

func TestRemoteSubscriberManagement(t *testing.T) {
	f := newFakeFabric("pub")
	e := New(f)
	p, err := e.Offer("t", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("gs", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("mc", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	if got := len(p.Subscribers()); got != 2 {
		t.Fatalf("subscribers = %d", got)
	}
	if err := p.Publish(context.Background(), map[string]any{"code": 1}); err != nil {
		t.Fatal(err)
	}
	if n := f.reliableCount(protocol.MTEvent); n != 2 {
		t.Errorf("event frames = %d, want 2", n)
	}
	e.HandleUnsubscribe("gs", &protocol.Frame{Type: protocol.MTUnsubscribe, Channel: "t"})
	if got := len(p.Subscribers()); got != 1 {
		t.Errorf("after unsubscribe = %d", got)
	}
	e.PeerGone("mc")
	if got := len(p.Subscribers()); got != 0 {
		t.Errorf("after PeerGone = %d", got)
	}
	published, failures := p.Stats()
	if published != 1 || failures != 0 {
		t.Errorf("stats = %d/%d", published, failures)
	}
}

func TestPartialDeliveryDropsSubscriber(t *testing.T) {
	f := newFakeFabric("pub")
	e := New(f)
	p, err := e.Offer("t", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleSubscribe("good", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	e.HandleSubscribe("bad", &protocol.Frame{Type: protocol.MTSubscribe, Channel: "t"})
	f.mu.Lock()
	f.failNodes["bad"] = true
	f.mu.Unlock()

	err = p.Publish(context.Background(), nil)
	if !errors.Is(err, ErrPartialDelivery) {
		t.Fatalf("want ErrPartialDelivery, got %v", err)
	}
	// The unreachable subscriber is dropped; next publish succeeds fully.
	if err := p.Publish(context.Background(), nil); err != nil {
		t.Errorf("after drop: %v", err)
	}
	if got := len(p.Subscribers()); got != 1 {
		t.Errorf("subscribers = %d", got)
	}
}

func TestPublishTypeEnforcement(t *testing.T) {
	e := New(newFakeFabric("n"))
	p, err := e.Offer("payload-less", "svc", nil, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(context.Background(), "unexpected"); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("payload on void topic: %v", err)
	}
	p2, err := e.Offer("typed", "svc", alertType, qos.EventQoS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Publish(context.Background(), "garbage"); err == nil {
		t.Error("uncoercible payload accepted")
	}
}

func TestSubscribeRegistersWithRemotePublisher(t *testing.T) {
	f := newFakeFabric("sub")
	e := New(f)
	f.dir.Apply(&naming.Announcement{
		Node: "pub", Epoch: 1,
		Records: []naming.Record{{
			Kind: naming.KindEvent, Name: "t", Service: "svc", Node: "pub",
			TypeSig: alertType.String(),
		}},
	}, time.Now())

	s, err := e.Subscribe("t", alertType, qos.EventQoS{}, func(any, transport.NodeID) {})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.reliableCount(protocol.MTSubscribe); n != 1 {
		t.Fatalf("subscribe frames = %d", n)
	}
	// Refresh re-registers (publisher restart recovery).
	e.Refresh()
	if n := f.reliableCount(protocol.MTSubscribe); n != 2 {
		t.Errorf("after refresh = %d", n)
	}
	s.Close()
	if n := f.reliableCount(protocol.MTUnsubscribe); n != 1 {
		t.Errorf("unsubscribe frames = %d", n)
	}
}

func TestHandleEventDecodesAndCounts(t *testing.T) {
	f := newFakeFabric("sub")
	e := New(f)
	var got atomic.Value
	s, err := e.Subscribe("t", alertType, qos.EventQoS{},
		func(v any, from transport.NodeID) { got.Store(v) })
	if err != nil {
		t.Fatal(err)
	}
	body, err := encoding.Marshal(alertType, map[string]any{"code": uint32(9)})
	if err != nil {
		t.Fatal(err)
	}
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 1, Channel: "t", Seq: 1,
		Payload: protocol.EncodeEventPayload(7, 1, body, nil),
	})
	v := got.Load()
	if v == nil || v.(map[string]any)["code"] != uint32(9) {
		t.Fatalf("delivered = %v", v)
	}
	if s.Received() != 1 {
		t.Errorf("Received = %d", s.Received())
	}
	// Wrong encoding: ignored.
	e.HandleEvent("pub", &protocol.Frame{
		Type: protocol.MTEvent, Encoding: 99, Channel: "t", Seq: 2,
		Payload: protocol.EncodeEventPayload(7, 2, body, nil),
	})
	if s.Received() != 1 {
		t.Error("foreign-encoded event delivered")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := New(newFakeFabric("n"))
	if _, err := e.Subscribe("t", nil, qos.EventQoS{}, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestRecords(t *testing.T) {
	e := New(newFakeFabric("node3"))
	if _, err := e.Offer("alarm", "svc", alertType, qos.EventQoS{}); err != nil {
		t.Fatal(err)
	}
	recs := e.Records()
	if len(recs) != 1 || recs[0].Kind != naming.KindEvent || recs[0].TypeSig != alertType.String() {
		t.Errorf("records = %+v", recs)
	}
}
