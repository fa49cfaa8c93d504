package protocol

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"uavmw/internal/bufpool"
	"uavmw/internal/clock"
	"uavmw/internal/encoding"
	"uavmw/internal/transport"
)

// Datagram transports bound payload size; frames beyond the MTU are split
// into MTFragment frames and reassembled on arrival. Fragment identity is
// (sender, fragment-stream id); fragments of one message share the id the
// sender allocated for it.
//
// Fragment payload layout:
//
//	u64 msgID   — sender-unique id of the original frame
//	u16 index   — fragment position
//	u16 total   — fragment count
//	raw bytes   — slice of the original encoded frame

// DefaultMTU is the fragmentation threshold for UDP-class transports,
// chosen to fit a 1500-byte Ethernet MTU with IP/UDP/envelope headroom.
const DefaultMTU = 1400

// maxFragments bounds reassembly memory per message.
const maxFragments = 1 << 14

// Fragment splits an encoded frame into MTFragment frames of at most mtu
// payload bytes each. Frames already within the MTU are returned unchanged
// as a single element.
//
// With a nil ackSeq every fragment header carries msgID as its Seq and no
// flags (a datagram send). A reliable send passes its sequence allocator
// instead: each fragment becomes its own ARQ message, its header stamped
// with a fresh ackSeq() and FlagAckRequired, and ackSeq is called once per
// fragment in order.
func Fragment(raw []byte, msgID uint64, mtu int, ackSeq func() uint64) ([][]byte, error) {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	if len(raw) <= mtu {
		return [][]byte{raw}, nil
	}
	total := (len(raw) + mtu - 1) / mtu
	if total > maxFragments {
		return nil, fmt.Errorf("protocol: %d fragments exceeds %d: %w", total, maxFragments, ErrBadFrame)
	}
	// Fragments inherit the original frame's priority so they drain from
	// the same egress lane and the ARQ resend path (which lanes by the
	// encoded header) cannot promote bulk to normal or demote critical.
	hdr := Frame{Type: MTFragment, Priority: PeekPriority(raw), Seq: msgID}
	if ackSeq != nil {
		hdr.Flags = FlagAckRequired
	}
	out := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		start := i * mtu
		end := min(start+mtu, len(raw))
		// One exact-size allocation per fragment: the frame header goes
		// through AppendFrame with an empty payload, then the fragment
		// header and chunk are appended directly in wire position.
		//wirepath:alloc fragments are retained by ARQ/egress, so they are GC-owned
		frame := make([]byte, 0, frameHeaderLen+fragHeaderLen+(end-start))
		if ackSeq != nil {
			hdr.Seq = ackSeq()
		}
		frame, err := AppendFrame(frame, &hdr)
		if err != nil {
			return nil, err
		}
		frame = binary.BigEndian.AppendUint64(frame, msgID)
		frame = binary.BigEndian.AppendUint16(frame, uint16(i))
		frame = binary.BigEndian.AppendUint16(frame, uint16(total))
		out = append(out, append(frame, raw[start:end]...))
	}
	return out, nil
}

// fragHeaderLen is the fragment payload header: u64 msgID, u16 index, u16
// total.
const fragHeaderLen = 12

// Reassembler collects MTFragment frames and yields completed original
// frames. Incomplete messages are discarded after a timeout so lost
// fragments cannot pin memory.
type Reassembler struct {
	ttl time.Duration
	clk clock.Clock

	mu      sync.Mutex
	pending map[reasmKey]*reasmState
}

type reasmKey struct {
	from  transport.NodeID
	msgID uint64
}

type reasmState struct {
	parts    [][]byte
	received int
	deadline time.Time
}

// DefaultReassemblyTTL bounds how long a partial message is retained.
const DefaultReassemblyTTL = 5 * time.Second

// NewReassembler builds a reassembler with the given partial-message TTL
// (0 means DefaultReassemblyTTL). clk is the time source for expiry; nil
// means the wall clock.
func NewReassembler(ttl time.Duration, clk clock.Clock) *Reassembler {
	if ttl <= 0 {
		ttl = DefaultReassemblyTTL
	}
	return &Reassembler{
		ttl:     ttl,
		clk:     clock.Or(clk),
		pending: make(map[reasmKey]*reasmState),
	}
}

// Offer consumes one MTFragment frame from a sender. When the final
// fragment arrives, the reassembled original frame bytes are returned;
// otherwise nil.
func (ra *Reassembler) Offer(from transport.NodeID, f *Frame) ([]byte, error) {
	if f.Type != MTFragment {
		return nil, fmt.Errorf("protocol: reassembler got %v: %w", f.Type, ErrBadFrame)
	}
	r := encoding.NewReader(f.Payload)
	msgID := r.Uint64()
	index := int(r.Uint16())
	total := int(r.Uint16())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("protocol: fragment header: %w", err)
	}
	if total == 0 || total > maxFragments || index >= total {
		return nil, fmt.Errorf("protocol: fragment %d/%d: %w", index, total, ErrBadFrame)
	}
	data := r.Raw(r.Remaining())

	ra.mu.Lock()
	defer ra.mu.Unlock()
	now := ra.clk.Now()
	ra.expireLocked(now)

	key := reasmKey{from: from, msgID: msgID}
	st := ra.pending[key]
	if st == nil {
		st = &reasmState{parts: make([][]byte, total)}
		ra.pending[key] = st
	}
	if len(st.parts) != total {
		// Sender restarted the id with a different shape; reset.
		st.parts = make([][]byte, total)
		st.received = 0
	}
	st.deadline = now.Add(ra.ttl)
	if st.parts[index] == nil {
		// Fragment data aliases the receive buffer, which is recycled the
		// moment the handler returns; reassembly state must own its bytes.
		st.parts[index] = bufpool.Copy(data)
		st.received++
	}
	if st.received < total {
		return nil, nil
	}
	delete(ra.pending, key)
	size := 0
	for _, p := range st.parts {
		size += len(p)
	}
	//wirepath:alloc the reassembled frame is handed to the receive path, which owns it
	out := make([]byte, 0, size)
	for _, p := range st.parts {
		out = append(out, p...)
	}
	return out, nil
}

// expireLocked drops timed-out partial messages. Caller holds ra.mu.
func (ra *Reassembler) expireLocked(now time.Time) {
	for key, st := range ra.pending {
		if now.After(st.deadline) {
			delete(ra.pending, key)
		}
	}
}

// PendingMessages reports partially reassembled message count.
func (ra *Reassembler) PendingMessages() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.pending)
}
