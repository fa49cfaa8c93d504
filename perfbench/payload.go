package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
)

// Every payload the benchmark sends is a pure function of the run's key
// (derived from --seed) and the operation's seq, so a receiver can check
// each value it is handed without shared state with the sender.

var (
	// telemetryType is a UAV state vector: nine fields, seq first.
	telemetryType = presentation.MustParse(
		"{seq:u64,lat:f64,lon:f64,alt:f32,vn:f32,ve:f32,vd:f32,fix:u8,wp:u32}")
	// alarmType is a critical alarm occurrence.
	alarmType = presentation.MustParse("{seq:u64,code:u8,level:f64}")
	// commandType is a command's argument; the call returns the seq.
	commandType = presentation.MustParse("{seq:u64,cmd:u8,val:f64}")
	returnType  = presentation.Uint64()
)

// Operation kinds occupy an op id's top byte, so ids of different kinds
// never collide and op 0 means "no operation".
const (
	kindTelemetry uint64 = 1
	kindAlarm     uint64 = 2
	kindCommand   uint64 = 3
	kindShift            = 56
)

func opID(kind, seq uint64) uint64 { return kind<<kindShift | seq }

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runKey derives the payload key from the seed.
func runKey(seed int64) uint64 { return mix(uint64(seed) ^ 0x5541564d57) }

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// telemetry is one sample's fields other than seq.
type telemetry struct {
	lat, lon        float64
	alt, vn, ve, vd float32
	fix             uint8
	wp              uint32
}

func telemetryFields(key, seq uint64) telemetry {
	h := mix(key ^ seq)
	return telemetry{
		lat: 41.2 + unit(h)*0.1,
		lon: 1.9 + unit(mix(h))*0.1,
		alt: float32(100 + h%400),
		vn:  float32(int64(h>>8&0xff) - 128),
		ve:  float32(int64(h>>16&0xff) - 128),
		vd:  float32(int64(h>>24&0x0f) - 8),
		fix: uint8(h >> 32 & 3),
		wp:  uint32(h >> 40 & 0xffff),
	}
}

// telemetryValue builds sample seq's value into m, which one generator
// reuses between publishes: Publish copies what it keeps before returning.
func telemetryValue(m map[string]any, key, seq uint64) map[string]any {
	if m == nil {
		m = make(map[string]any, 9)
	}
	t := telemetryFields(key, seq)
	m["seq"] = seq
	m["lat"], m["lon"] = t.lat, t.lon
	m["alt"], m["vn"], m["ve"], m["vd"] = t.alt, t.vn, t.ve, t.vd
	m["fix"], m["wp"] = t.fix, t.wp
	return m
}

// checkTelemetry returns the seq a received sample carries and whether
// every field matches what that seq's publisher sent.
func checkTelemetry(key uint64, v any) (uint64, bool) {
	m, ok := v.(map[string]any)
	if !ok || len(m) != 9 {
		return 0, false
	}
	seq, ok := m["seq"].(uint64)
	if !ok {
		return 0, false
	}
	w := telemetryFields(key, seq)
	lat, _ := m["lat"].(float64)
	lon, _ := m["lon"].(float64)
	alt, _ := m["alt"].(float32)
	vn, _ := m["vn"].(float32)
	ve, _ := m["ve"].(float32)
	vd, _ := m["vd"].(float32)
	fix, okFix := m["fix"].(uint8)
	wp, okWp := m["wp"].(uint32)
	return seq, okFix && okWp && lat == w.lat && lon == w.lon && alt == w.alt &&
		vn == w.vn && ve == w.ve && vd == w.vd && fix == w.fix && wp == w.wp
}

func alarmValue(key, seq uint64) map[string]any {
	h := mix(key ^ seq ^ 0xa1a2)
	return map[string]any{"seq": seq, "code": uint8(h & 0x3f), "level": unit(h) * 10}
}

func checkAlarm(key uint64, v any) (uint64, bool) {
	m, ok := v.(map[string]any)
	if !ok {
		return 0, false
	}
	seq, ok := m["seq"].(uint64)
	if !ok {
		return 0, false
	}
	w := alarmValue(key, seq)
	return seq, len(m) == 3 && m["code"] == w["code"] && m["level"] == w["level"]
}

func commandValue(key, seq uint64) map[string]any {
	h := mix(key ^ seq ^ 0xc0c0)
	return map[string]any{"seq": seq, "cmd": uint8(h & 0x0f), "val": unit(h) * 100}
}

func checkCommand(key uint64, v any) (uint64, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return 0, fmt.Errorf("command argument %T", v)
	}
	seq, ok := m["seq"].(uint64)
	if !ok {
		return 0, fmt.Errorf("command argument without seq")
	}
	w := commandValue(key, seq)
	if len(m) != 3 || m["cmd"] != w["cmd"] || m["val"] != w["val"] {
		return seq, fmt.Errorf("command %d arrived altered", seq)
	}
	return seq, nil
}

// imageBytes is the mission's image file: incompressible bytes from the key.
func imageBytes(key uint64, n int) []byte {
	b := make([]byte, n)
	h := key
	for i := 0; i < n; i += 8 {
		h = mix(h)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], h)
		copy(b[i:], w[:])
	}
	return b
}

// permute returns 0..n-1 in an order derived from the key: topics are
// offered and subscribed in this order.
func permute(key uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	h := key
	for i := n - 1; i > 0; i-- {
		h = mix(h)
		j := int(h % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// opTable recovers operation ids for the tracing wrappers: from a frame's
// channel and payload on the wire, and from a value's type in the encoding.
type opTable struct {
	chans map[string]uint64 // channel -> kind
	types map[string]uint64 // type signature -> kind
}

func newOpTable() *opTable {
	return &opTable{
		chans: make(map[string]uint64),
		types: map[string]uint64{
			telemetryType.String(): kindTelemetry,
			alarmType.String():     kindAlarm,
			commandType.String():   kindCommand,
			returnType.String():    kindCommand,
		},
	}
}

// seqOffset is where each frame type's payload holds the operation seq:
// samples have a 16-byte sample header, events a 12-byte event header,
// calls start with the argument struct and returns with the u64 call id.
func seqOffset(t protocol.MsgType) int {
	switch t {
	case protocol.MTSample:
		return 16
	case protocol.MTEvent:
		return 12
	case protocol.MTCall:
		return 0
	case protocol.MTReturn:
		return 8
	}
	return -1
}

// FrameOp implements harness.Ops.
func (o *opTable) FrameOp(f *protocol.Frame) uint64 {
	kind := o.chans[f.Channel]
	off := seqOffset(f.Type)
	if kind == 0 || off < 0 || len(f.Payload) < off+8 {
		return 0
	}
	return opID(kind, binary.BigEndian.Uint64(f.Payload[off:]))
}

// ValueOp implements harness.Ops.
func (o *opTable) ValueOp(t *presentation.Type, v any) uint64 {
	kind := o.types[t.String()]
	if kind == 0 {
		return 0
	}
	switch x := v.(type) {
	case map[string]any:
		if seq, ok := x["seq"].(uint64); ok {
			return opID(kind, seq)
		}
	case uint64:
		return opID(kind, x)
	}
	return 0
}

// finite maps a lost-operation latency (+Inf) to the largest float, which
// JSON can carry and which exceeds every limit.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}
