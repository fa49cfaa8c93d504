package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/events"
	"uavmw/internal/naming"
	"uavmw/internal/netsim"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// TestEventQoSTuningDrivesNodeARQ pins the per-send ARQ tuning path
// through a real container: a topic's EventQoS.AckTimeout / MaxRetries
// must reach the node's ARQ engine for every unicast occurrence. Once the
// subscriber is cut off, publishing one occurrence must cost exactly
// MaxRetries+1 transmissions spaced by the tuned AckTimeout — not the
// engine defaults the node was built with — before the send fails.
// Transmission times are read off the publisher's arq.sent and
// arq.retransmits counters on the virtual clock.
func TestEventQoSTuningDrivesNodeARQ(t *testing.T) {
	const (
		ackTimeout = 30 * time.Millisecond
		maxRetries = 3
		poll       = time.Millisecond
	)
	if ackTimeout == protocol.DefaultARQTimeout || maxRetries == protocol.DefaultARQRetries {
		t.Fatal("tuning must differ from the engine defaults to be observable")
	}
	v := clock.NewVirtual()
	var failure string
	v.Run(func() {
		net := netsim.New(netsim.Config{Seed: 5, Latency: time.Millisecond, Clock: v})
		defer net.Close()
		mk := func(id transport.NodeID) *Node {
			ep, err := net.Node(id)
			if err != nil {
				t.Fatal(err)
			}
			// Backoff 1 keeps every retransmission interval equal to the
			// initial timeout; the long failure deadline keeps liveness
			// from reaping the cut-off subscriber mid-test.
			n, err := NewNode(
				WithClock(v),
				WithDatagram(ep),
				WithAnnouncePeriod(20*time.Millisecond),
				WithFailureDeadline(time.Hour),
				WithARQ(protocol.WithBackoff(1)),
			)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		pub := mk("pub")
		defer func() { _ = pub.Close() }()
		sub := mk("sub")
		defer func() { _ = sub.Close() }()

		q := qos.EventQoS{AckTimeout: ackTimeout, MaxRetries: maxRetries}
		p, err := pub.Events().Offer("alarm.tuned", "svc", presentation.Uint32(), q)
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Int32
		if _, err := sub.Events().Subscribe("alarm.tuned", presentation.Uint32(), q,
			func(any, transport.NodeID) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		deadline := v.Now().Add(10 * time.Second)
		for got.Load() == 0 {
			if v.Now().After(deadline) {
				failure = "subscription never delivered an occurrence"
				return
			}
			if sub.Directory().ProviderCount(naming.KindEvent, "alarm.tuned") == 1 && len(p.Subscribers()) == 1 {
				_ = p.Publish(ctx, uint32(0))
			}
			v.Sleep(5 * time.Millisecond)
		}

		net.Partition("pub", "sub")
		reg := pub.Metrics()
		sent := reg.Counter("arq", "sent")
		retx := reg.Counter("arq", "retransmits")
		failed := reg.Counter("arq", "failed")
		sent0, retx0, failed0 := sent.Value(), retx.Value(), failed.Value()

		var pubErr atomic.Value
		var published atomic.Bool
		start := v.Now()
		v.Go(func() {
			if err := p.Publish(ctx, uint32(1)); err != nil {
				pubErr.Store(err)
			}
			published.Store(true)
		})
		// Record the virtual time of every transmission and of the
		// failure as the counters show them, until the publish resolves.
		var (
			at       []time.Duration
			failedAt time.Duration
		)
		for seen := uint64(0); !published.Load() || failedAt == 0; v.Sleep(poll) {
			now := v.Since(start)
			for n := sent.Value() - sent0 + retx.Value() - retx0; seen < n; seen++ {
				at = append(at, now)
			}
			if failedAt == 0 && failed.Value() > failed0 {
				failedAt = now
			}
			if now > 5*time.Second {
				failure = "publish to a cut-off subscriber never resolved"
				return
			}
		}

		if err, _ := pubErr.Load().(error); !errors.Is(err, events.ErrPartialDelivery) {
			t.Errorf("publish error = %v, want ErrPartialDelivery", err)
		}
		if d := sent.Value() - sent0; d != 1 {
			t.Errorf("arq.sent grew by %d, want 1 first transmission", d)
		}
		if d := retx.Value() - retx0; d != maxRetries {
			t.Errorf("arq.retransmits grew by %d, want MaxRetries=%d", d, maxRetries)
		}
		if d := failed.Value() - failed0; d != 1 {
			t.Errorf("arq.failed grew by %d, want 1", d)
		}
		if len(at) != maxRetries+1 {
			t.Fatalf("observed %d transmissions, want %d", len(at), maxRetries+1)
		}
		for i := 1; i < len(at); i++ {
			if gap := at[i] - at[i-1]; gap < ackTimeout-poll || gap > ackTimeout+poll {
				t.Errorf("transmission %d came %v after the previous one, want %v", i, gap, ackTimeout)
			}
		}
		if gap := failedAt - at[len(at)-1]; gap < ackTimeout-poll || gap > ackTimeout+poll {
			t.Errorf("send failed %v after the last transmission, want %v", gap, ackTimeout)
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}
