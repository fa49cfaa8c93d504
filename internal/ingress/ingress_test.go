package ingress

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/metrics"
	"uavmw/internal/transport"
)

func seqPayload(seq uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	return b[:]
}

// TestPerSourceOrderingAcrossShards pins the pipeline's one ordering
// guarantee under virtual time: however many shards run and however two
// sources interleave, each source's packets reach Deliver in enqueue
// order.
func TestPerSourceOrderingAcrossShards(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		var mu sync.Mutex
		got := map[transport.NodeID][]uint64{}
		p := New(Config{
			Shards: 4,
			Clock:  v,
			Deliver: func(shard int, batch []Packet) {
				mu.Lock()
				for _, pkt := range batch {
					got[pkt.From] = append(got[pkt.From], binary.BigEndian.Uint64(pkt.Payload))
				}
				mu.Unlock()
			},
		})
		defer p.Close()
		if p.Shards() != 4 {
			t.Fatalf("Shards() = %d, want 4", p.Shards())
		}
		sources := []transport.NodeID{"uav-alpha", "uav-bravo"}
		const perSource = 200
		for seq := uint64(0); seq < perSource; seq++ {
			for _, src := range sources {
				p.Enqueue("radio", transport.Packet{From: src, Payload: seqPayload(seq)})
			}
		}
		// Quiesce: virtual time cannot advance while any worker still has
		// queued packets, so one sleep drains everything.
		v.Sleep(time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		for _, src := range sources {
			if len(got[src]) != perSource {
				t.Fatalf("source %s: delivered %d packets, want %d", src, len(got[src]), perSource)
			}
			for i, seq := range got[src] {
				if seq != uint64(i) {
					t.Fatalf("source %s: packet %d has seq %d — per-source FIFO violated", src, i, seq)
				}
			}
		}
	})
}

// TestVirtualDefaultsSerialize: under a virtual clock a zero config runs
// one shard draining one packet per batch, the configuration that keeps
// same-seed virtual runs byte-identical.
func TestVirtualDefaultsSerialize(t *testing.T) {
	v := clock.NewVirtual()
	v.Run(func() {
		sizes := make(chan int, 8)
		p := New(Config{Clock: v, Deliver: func(_ int, batch []Packet) { sizes <- len(batch) }})
		defer p.Close()
		if p.Shards() != 1 {
			t.Fatalf("virtual default Shards() = %d, want 1", p.Shards())
		}
		for seq := uint64(0); seq < 5; seq++ {
			p.Enqueue("", transport.Packet{From: "a", Payload: seqPayload(seq)})
		}
		v.Sleep(time.Millisecond)
		close(sizes)
		n := 0
		for sz := range sizes {
			n++
			if sz != 1 {
				t.Fatalf("virtual drain batch of %d packets, want 1", sz)
			}
		}
		if n != 5 {
			t.Fatalf("delivered %d batches, want 5", n)
		}
	})
}

// TestOwnershipHandoff verifies both sides of the buffer contract: a packet
// arriving with an Owner is retained (the delivered payload aliases the
// transport's buffer, no copy), and one without is copied once into pooled
// storage with the pipeline holding the only reference.
func TestOwnershipHandoff(t *testing.T) {
	type seen struct {
		first byte
		addr  *byte
		owner *bufpool.Shared
	}
	in := make([]byte, 16)
	in[0] = 0x5a
	owner := bufpool.Share(append(bufpool.Get(len(in)), in...))
	base := &owner.Bytes()[0]

	ch := make(chan seen, 2)
	p := New(Config{
		Shards: 1,
		Deliver: func(_ int, batch []Packet) {
			for _, pkt := range batch {
				ch <- seen{
					first: pkt.Payload[0],
					addr:  &pkt.Payload[0],
					owner: pkt.Owner,
				}
			}
		},
	})
	defer p.Close()

	p.Enqueue("", transport.Packet{From: "a", Payload: owner.Bytes(), Owner: owner})
	zero := <-ch
	if zero.addr != base {
		t.Fatal("owned packet was copied; want zero-copy retain")
	}
	if zero.owner != owner {
		t.Fatal("owned packet lost its Shared reference")
	}
	// The pipeline released its retain after Deliver returned; ours is the
	// one reference left.
	deadline := time.Now().Add(2 * time.Second)
	for owner.Refs() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("owner refs = %d after delivery, want 1", owner.Refs())
		}
		time.Sleep(time.Millisecond)
	}
	owner.Release()

	p.Enqueue("", transport.Packet{From: "a", Payload: in})
	copied := <-ch
	// Compare with the caller's buffer, not the owner's: the owner's
	// buffer went back to the pool above and may back the pooled copy.
	if copied.addr == &in[0] {
		t.Fatal("ownerless packet aliased the caller's buffer; want pooled copy")
	}
	if copied.first != 0x5a {
		t.Fatalf("copied payload corrupt: first byte %#x", copied.first)
	}
	if copied.owner == nil {
		t.Fatal("pooled copy arrived without an Owner")
	}
}

// TestDropOldest fills a shard ring behind a blocked Deliver and checks the
// stalest packet is shed, the transports' read loop is never blocked, and
// the drop is counted.
func TestDropOldest(t *testing.T) {
	reg := metrics.NewRegistry()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []uint64
	first := true
	p := New(Config{
		Shards:   1,
		Ring:     4,
		MaxBatch: 1,
		Metrics:  reg,
		Deliver: func(_ int, batch []Packet) {
			if first {
				first = false
				close(entered)
				<-gate
			}
			mu.Lock()
			for _, pkt := range batch {
				got = append(got, binary.BigEndian.Uint64(pkt.Payload))
			}
			mu.Unlock()
		},
	})
	defer p.Close()

	p.Enqueue("", transport.Packet{From: "a", Payload: seqPayload(0)})
	<-entered // worker is now wedged inside Deliver; the ring is empty
	for seq := uint64(1); seq <= 5; seq++ {
		p.Enqueue("", transport.Packet{From: "a", Payload: seqPayload(seq)})
	}
	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for p.Delivered() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d packets, want 5", p.Delivered())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{0, 2, 3, 4, 5} // seq 1 was oldest when the ring overflowed
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if drops := reg.SumCounters("ingress", "drops"); drops != 1 {
		t.Fatalf("ingress drops = %d, want 1", drops)
	}
}

// TestCloseDrainsAndDrops: packets queued before Close still deliver
// (mirroring the transports' pre-close drain); packets enqueued after are
// counted as drops and leave no dangling buffer reference.
func TestCloseDrainsAndDrops(t *testing.T) {
	reg := metrics.NewRegistry()
	var delivered sync.Map
	p := New(Config{
		Shards:  2,
		Metrics: reg,
		Deliver: func(_ int, batch []Packet) {
			for _, pkt := range batch {
				delivered.Store(binary.BigEndian.Uint64(pkt.Payload), true)
			}
		},
	})
	for seq := uint64(0); seq < 10; seq++ {
		p.Enqueue("", transport.Packet{From: transport.NodeID(fmt.Sprintf("n%d", seq%3)), Payload: seqPayload(seq)})
	}
	p.Close()
	for seq := uint64(0); seq < 10; seq++ {
		if _, ok := delivered.Load(seq); !ok {
			t.Fatalf("packet %d enqueued before Close never delivered", seq)
		}
	}

	owner := bufpool.Share(bufpool.Get(8)[:8])
	p.Enqueue("", transport.Packet{From: "late", Payload: owner.Bytes(), Owner: owner})
	if refs := owner.Refs(); refs != 1 {
		t.Fatalf("post-close Enqueue kept a reference: refs = %d, want 1", refs)
	}
	if drops := reg.SumCounters("ingress", "drops"); drops != 1 {
		t.Fatalf("post-close drops = %d, want 1", drops)
	}
	owner.Release()
	p.Close() // idempotent
}

// TestShardOfStable: the source hash is a pure function of identity, and
// every source lands inside range.
func TestShardOfStable(t *testing.T) {
	p := New(Config{Shards: 8, Deliver: func(int, []Packet) {}})
	defer p.Close()
	for i := 0; i < 64; i++ {
		id := transport.NodeID(fmt.Sprintf("node-%d", i))
		s := p.ShardOf(id)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%s) = %d, out of range", id, s)
		}
		if again := p.ShardOf(id); again != s {
			t.Fatalf("ShardOf(%s) unstable: %d then %d", id, s, again)
		}
	}
}

// TestMetricsFamilies pins the ingress metrics family set.
func TestMetricsFamilies(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Config{Shards: 2, Metrics: reg, Deliver: func(int, []Packet) {}})
	defer p.Close()
	want := []string{
		"counter ingress.drops",
		"counter ingress.frames",
		"gauge ingress.queue_depth",
		"gauge ingress.shards",
		"histogram ingress.batch_frames",
	}
	got := map[string]bool{}
	for _, fam := range reg.Snapshot().FamilyList() {
		got[fam] = true
	}
	for _, fam := range want {
		if !got[fam] {
			t.Fatalf("metrics family %q missing; have %v", fam, reg.Snapshot().FamilyList())
		}
	}
}
