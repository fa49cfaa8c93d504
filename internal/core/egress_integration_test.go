package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"uavmw/internal/naming"
	"uavmw/internal/netsim"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

// TestBatchedFramesDeliverTransparently pins the coalescing round trip end
// to end: a back-to-back burst of small multicast occurrences is packed
// into MTBatch datagrams by the publisher's egress plane and unpacked by
// the receiving container with no occurrence lost or reordered.
func TestBatchedFramesDeliverTransparently(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 21, Latency: 200 * time.Microsecond})
	defer net.Close()
	pub := newSimNode(t, net, "uav")
	// The inline scheduler runs handlers in engine order; the pool's
	// parallel same-class workers would reorder the burst after the
	// MTBatch round trip this test checks.
	sub := newSimNode(t, net, "gs", WithScheduler(inlineSched()))
	syncNodes(t, pub, sub)

	p, err := pub.Events().Offer("batch.burst", "it", presentation.Uint32(), mcastEventQoS)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "event record", func() bool {
		return sub.Directory().ProviderCount(naming.KindEvent, "batch.burst") == 1
	})
	var last atomic.Uint32
	var count atomic.Int64
	if _, err := sub.Events().Subscribe("batch.burst", presentation.Uint32(), mcastEventQoS,
		func(v any, _ transport.NodeID) {
			seq := v.(uint32)
			if prev := last.Load(); seq <= prev {
				t.Errorf("occurrence %d arrived after %d", seq, prev)
			}
			last.Store(seq)
			count.Add(1)
		}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "subscriber registration", func() bool {
		return len(p.Subscribers()) == 1
	})

	const n = 60
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		if err := p.Publish(ctx, uint32(i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	waitUntil(t, 5*time.Second, "all occurrences", func() bool {
		return count.Load() == n
	})
	// The burst outpaces the drainer, so at least some frames must have
	// ridden in shared MTBatch datagrams.
	if coalesced := pub.EgressStats().Totals().Coalesced; coalesced == 0 {
		t.Error("no frames coalesced during a back-to-back burst")
	}
}

// TestEgressStatsAccounting pins Node.EgressStats: frames a node sends are
// visible per class with no drops on an uncongested link.
func TestEgressStatsAccounting(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 22})
	defer net.Close()
	a := newSimNode(t, net, "a")
	b := newSimNode(t, net, "b")
	syncNodes(t, a, b)

	vp, err := a.Variables().Offer("batch.var", "it", presentation.Uint32(), qos.VariableQoS{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := vp.Publish(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.FlushEgress()
	st := a.EgressStats()
	if tot := st.Totals(); tot.Enqueued == 0 || tot.Sent == 0 {
		t.Fatalf("no egress activity recorded: %+v", tot)
	}
	if dropped := st.Totals().Dropped; dropped != 0 {
		t.Errorf("%d frames dropped on an idle link", dropped)
	}
}
