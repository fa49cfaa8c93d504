package main

import (
	"testing"
	"time"

	"uavmw/internal/clock"

	"uavmw/perfbench/harness"
)

func TestPayloadChecksRejectAlteredValues(t *testing.T) {
	key := runKey(42)
	v := telemetryValue(nil, key, 77)
	if seq, ok := checkTelemetry(key, v); !ok || seq != 77 {
		t.Fatalf("intact sample: seq %d ok %v", seq, ok)
	}
	v["alt"] = v["alt"].(float32) + 1
	if _, ok := checkTelemetry(key, v); ok {
		t.Fatal("altered sample accepted")
	}
	if _, ok := checkTelemetry(runKey(43), telemetryValue(nil, key, 77)); ok {
		t.Fatal("sample checked against another seed's key accepted")
	}
	a := alarmValue(key, 5)
	a["level"] = a["level"].(float64) + 1
	if _, ok := checkAlarm(key, a); ok {
		t.Fatal("altered alarm accepted")
	}
	c := commandValue(key, 9)
	c["cmd"] = c["cmd"].(uint8) + 1
	if _, err := checkCommand(key, c); err == nil {
		t.Fatal("altered command accepted")
	}
}

// spanKinds maps each operation kind to the span kinds recorded for it,
// checking that every operation id names an operation that was issued.
func spanKinds(t *testing.T, tr *harness.Tracer, issued map[uint64]uint64) map[uint64]map[harness.SpanKind]bool {
	t.Helper()
	got := make(map[uint64]map[harness.SpanKind]bool)
	for _, s := range tr.Spans() {
		kind, seq := s.Op>>kindShift, s.Op&(1<<kindShift-1)
		if seq >= issued[kind] {
			t.Fatalf("%s span names op kind %d seq %d; only %d issued", s.Name, kind, seq, issued[kind])
		}
		if got[kind] == nil {
			got[kind] = make(map[harness.SpanKind]bool)
		}
		got[kind][s.Kind] = true
	}
	return got
}

func wantKinds(t *testing.T, name string, got map[harness.SpanKind]bool, want ...harness.SpanKind) {
	t.Helper()
	for _, k := range want {
		if !got[k] {
			t.Errorf("%s: no %s span carries the operation", name, k)
		}
	}
}

// The traced run recovers each operation from frames on the wire, values
// in the encoding and the scheduler job its handler ran in.
func TestTracedCommandSpansCarryOperations(t *testing.T) {
	tr := harness.NewTracer(1)
	c, err := setupCommand(newEnv(runKey(1), clock.Real{}, tr))
	if err != nil {
		c.close()
		t.Fatal(err)
	}
	r := c.run(300*time.Millisecond, false, nil)
	c.close()
	for _, err := range r.errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.callsOK == 0 || r.alarmsOK != r.alarms {
		t.Fatalf("calls %d ok, alarms %d of %d", r.callsOK, r.alarmsOK, r.alarms)
	}
	got := spanKinds(t, tr, map[uint64]uint64{kindCommand: uint64(r.calls), kindAlarm: uint64(r.alarms)})
	wire := []harness.SpanKind{harness.SpanGenOp, harness.SpanMarshal, harness.SpanSend, harness.SpanDeliver,
		harness.SpanUnmarshal, harness.SpanWait, harness.SpanRun, harness.SpanHandler}
	wantKinds(t, "command", got[kindCommand], append(wire, harness.SpanRPCCall)...)
	wantKinds(t, "alarm", got[kindAlarm], append(wire, harness.SpanEvPublish)...)
}

func TestTracedFaninSpansCarryOperations(t *testing.T) {
	tr := harness.NewTracer(1)
	f, err := setupFanin(newEnv(runKey(1), clock.Real{}, tr))
	if err != nil {
		f.close()
		t.Fatal(err)
	}
	r := f.closedLoop(0, 300*time.Millisecond, nil)
	f.close()
	if r.err != nil || r.delivered != r.issued || r.issued == 0 {
		t.Fatalf("issued %d delivered %d: %v", r.issued, r.delivered, r.err)
	}
	// The two generators take alternate seqs, so one may run ahead of the
	// other by up to its whole count.
	got := spanKinds(t, tr, map[uint64]uint64{kindTelemetry: uint64(2*r.issued + 2)})
	wantKinds(t, "telemetry", got[kindTelemetry], harness.SpanGenOp, harness.SpanVarPublish,
		harness.SpanMarshal, harness.SpanSend, harness.SpanDeliver, harness.SpanUnmarshal,
		harness.SpanWait, harness.SpanRun, harness.SpanHandler)
}
