package protocol

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"uavmw/internal/qos"
)

func TestFragmentPassthroughUnderMTU(t *testing.T) {
	raw := []byte("small frame")
	frags, err := Fragment(raw, 1, 1400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || !bytes.Equal(frags[0], raw) {
		t.Error("under-MTU frame must pass through unchanged")
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, size := range []int{1401, 2800, 5000, 100_000} {
		raw := make([]byte, size)
		r.Read(raw)
		frags, err := Fragment(raw, 42, 1400, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(frags) < 2 {
			t.Fatalf("size %d produced %d fragments", size, len(frags))
		}
		ra := NewReassembler(0, nil)
		var out []byte
		for i, fr := range frags {
			f, err := DecodeFrame(fr)
			if err != nil {
				t.Fatalf("fragment %d decode: %v", i, err)
			}
			if f.Type != MTFragment {
				t.Fatalf("fragment %d type %v", i, f.Type)
			}
			got, err := ra.Offer("src", f)
			if err != nil {
				t.Fatalf("Offer %d: %v", i, err)
			}
			if i < len(frags)-1 && got != nil {
				t.Fatal("complete before final fragment")
			}
			if i == len(frags)-1 {
				out = got
			}
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("size %d: reassembly mismatch", size)
		}
		if ra.PendingMessages() != 0 {
			t.Error("completed message still pending")
		}
	}
}

func TestFragmentReassembleOutOfOrderAndDuplicates(t *testing.T) {
	raw := make([]byte, 10_000)
	rand.New(rand.NewSource(8)).Read(raw)
	frags, err := Fragment(raw, 7, 1400, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle and duplicate every fragment.
	order := rand.New(rand.NewSource(9)).Perm(len(frags))
	ra := NewReassembler(0, nil)
	var out []byte
	offered := 0
	for _, idx := range order {
		f, _ := DecodeFrame(frags[idx])
		got, err := ra.Offer("src", f)
		if err != nil {
			t.Fatal(err)
		}
		offered++
		if got != nil {
			out = got
		}
		// Duplicate offer of same fragment must be harmless.
		if got2, err := ra.Offer("src", f); err != nil {
			t.Fatal(err)
		} else if got2 != nil && out == nil {
			out = got2
		}
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("out-of-order reassembly mismatch")
	}
}

func TestFragmentSenderIsolation(t *testing.T) {
	raw := make([]byte, 3000)
	frags, _ := Fragment(raw, 5, 1400, nil)
	ra := NewReassembler(0, nil)
	// Same msgID from two senders must not cross-pollinate.
	f0, _ := DecodeFrame(frags[0])
	if got, _ := ra.Offer("a", f0); got != nil {
		t.Fatal("premature completion")
	}
	for i, fr := range frags {
		f, _ := DecodeFrame(fr)
		got, err := ra.Offer("b", f)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(frags)-1 && got == nil {
			t.Fatal("sender b never completed")
		}
	}
	if ra.PendingMessages() != 1 {
		t.Errorf("pending = %d, want 1 (sender a partial)", ra.PendingMessages())
	}
}

func TestFragmentTTLExpiry(t *testing.T) {
	raw := make([]byte, 3000)
	frags, _ := Fragment(raw, 11, 1400, nil)
	ra := NewReassembler(10*time.Millisecond, nil)
	f0, _ := DecodeFrame(frags[0])
	if _, err := ra.Offer("a", f0); err != nil {
		t.Fatal(err)
	}
	if ra.PendingMessages() != 1 {
		t.Fatal("fragment not pending")
	}
	time.Sleep(20 * time.Millisecond)
	// Any new offer triggers expiry sweep.
	other, _ := Fragment(make([]byte, 2000), 12, 1400, nil)
	fo, _ := DecodeFrame(other[0])
	if _, err := ra.Offer("b", fo); err != nil {
		t.Fatal(err)
	}
	if ra.PendingMessages() != 1 {
		t.Errorf("expired partial not dropped: pending=%d", ra.PendingMessages())
	}
}

func TestFragmentBadInputs(t *testing.T) {
	ra := NewReassembler(0, nil)
	// Non-fragment frame.
	if _, err := ra.Offer("a", &Frame{Type: MTEvent}); err == nil {
		t.Error("non-fragment frame must fail")
	}
	// Truncated fragment header.
	if _, err := ra.Offer("a", &Frame{Type: MTFragment, Payload: []byte{1, 2}}); err == nil {
		t.Error("truncated header must fail")
	}
	// index >= total.
	w := fragHeader(1, 5, 2)
	if _, err := ra.Offer("a", &Frame{Type: MTFragment, Payload: w}); err == nil {
		t.Error("index >= total must fail")
	}
	// total == 0.
	w = fragHeader(1, 0, 0)
	if _, err := ra.Offer("a", &Frame{Type: MTFragment, Payload: w}); err == nil {
		t.Error("zero total must fail")
	}
}

func fragHeader(msgID uint64, index, total uint16) []byte {
	out := make([]byte, 12)
	for i := 0; i < 8; i++ {
		out[7-i] = byte(msgID >> (8 * i))
	}
	out[8], out[9] = byte(index>>8), byte(index)
	out[10], out[11] = byte(total>>8), byte(total)
	return out
}

func TestFragmentTooManyFragments(t *testing.T) {
	raw := make([]byte, maxFragments*2+10)
	if _, err := Fragment(raw, 1, 1, nil); err == nil {
		t.Error("fragment count beyond cap must fail")
	}
}

func TestFragmentMTUDefault(t *testing.T) {
	raw := make([]byte, DefaultMTU+1)
	frags, err := Fragment(raw, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Errorf("default MTU fragmentation produced %d parts", len(frags))
	}
}

// TestFragmentsInheritPriority pins the egress-lane property: fragments of
// an oversized frame carry the original frame's priority in their own
// headers, so priority-peeking send paths (ARQ resends, egress laning)
// keep every fragment in the original class.
func TestFragmentsInheritPriority(t *testing.T) {
	for _, pr := range qos.Levels() {
		raw, err := EncodeFrame(&Frame{
			Type: MTFileChunk, Priority: pr, Channel: "big", Seq: 7,
			Payload: make([]byte, 4000),
		})
		if err != nil {
			t.Fatal(err)
		}
		parts, err := Fragment(raw, 7, 1400, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) < 2 {
			t.Fatalf("expected fragmentation, got %d part(s)", len(parts))
		}
		for i, part := range parts {
			f, err := DecodeFrame(part)
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != MTFragment {
				t.Fatalf("part %d type %v", i, f.Type)
			}
			if f.Priority != pr {
				t.Fatalf("fragment %d priority = %v, want %v", i, f.Priority, pr)
			}
			if got := PeekPriority(part); got != pr {
				t.Fatalf("PeekPriority(fragment %d) = %v, want %v", i, got, pr)
			}
		}
	}
}

// TestFragmentAckSeqMatchesReencode pins the reliable fragment form:
// stamping the per-fragment seq and FlagAckRequired inside Fragment must
// produce exactly the bytes of the datagram fragments decoded, re-stamped
// and re-encoded one by one.
func TestFragmentAckSeqMatchesReencode(t *testing.T) {
	raw, err := EncodeFrame(&Frame{
		Type: MTCall, Flags: FlagAckRequired, Priority: qos.PriorityHigh,
		Channel: "nav.plan", Seq: 40, Payload: bytes.Repeat([]byte{0xA5}, 3000),
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Fragment(raw, 40, 1400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 3 {
		t.Fatalf("got %d fragments, want 3", len(plain))
	}
	want := make([][]byte, len(plain))
	for i, part := range plain {
		f, err := DecodeFrame(part)
		if err != nil {
			t.Fatal(err)
		}
		f.Seq = uint64(100 + i)
		f.Flags |= FlagAckRequired
		if want[i], err = EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}

	next := uint64(100)
	got, err := Fragment(raw, 40, 1400, func() uint64 { next++; return next - 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d fragments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("fragment %d differs from the decode/re-encode form", i)
		}
	}
	if next != 103 {
		t.Errorf("ackSeq called %d times, want 3", next-100)
	}
}
