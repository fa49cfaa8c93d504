//go:build race

package clock

import (
	"testing"
	"time"
)

// panicOf runs fn on its own goroutine and returns what it panicked with:
// "" if it returned, "hung" if it did neither within a few seconds (an
// unchecked breach can stall the clock instead of panicking).
func panicOf(fn func()) string {
	res := make(chan string, 1)
	go func() {
		msg := "hung"
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
				if msg == "" {
					msg = "non-string panic"
				}
			}
			res <- msg
		}()
		fn()
		msg = ""
	}()
	select {
	case msg := <-res:
		return msg
	case <-time.After(5 * time.Second):
		return "hung"
	}
}

// Race builds check the registration contract: each breach panics with
// the message naming its rule.
func TestVirtualContractBreachesPanic(t *testing.T) {
	cases := []struct {
		name string
		run  func(v *Virtual)
		rule string
	}{
		{"sleep from unregistered goroutine", func(v *Virtual) {
			v.Sleep(time.Millisecond)
		}, ruleUnregistered},
		{"sleep inside Blocking's wait", func(v *Virtual) {
			v.Run(func() {
				Blocking(v, func() { v.Sleep(time.Millisecond) })
			})
		}, ruleBlocking},
		{"nested Run", func(v *Virtual) {
			v.Run(func() { v.Run(func() {}) })
		}, ruleNestedRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := panicOf(func() { tc.run(NewVirtual()) })
			if got != tc.rule {
				t.Fatalf("panic %q, want %q", got, tc.rule)
			}
		})
	}
}

// Parks from every kind of registered goroutine are within the contract.
// A breach in a Go or AfterFunc goroutine would crash the test binary.
func TestVirtualContractRegisteredParksPass(t *testing.T) {
	v := NewVirtual()
	trig := NewTrigger(v)
	finished := false
	got := panicOf(func() {
		v.Run(func() {
			done := make(chan struct{}, 2)
			v.Go(func() {
				trig.Wait(-1, nil)
				v.Sleep(time.Millisecond)
				done <- struct{}{}
			})
			v.AfterFunc(time.Millisecond, func() {
				tk := v.NewTicker(time.Millisecond)
				tk.Wait(nil)
				tk.Stop()
				SleepStop(v, time.Millisecond, nil)
				done <- struct{}{}
			})
			v.Sleep(5 * time.Millisecond)
			trig.Signal()
			Blocking(v, func() { <-done; <-done })
			finished = true
		})
	})
	if got != "" {
		t.Fatalf("registered parks panicked: %s", got)
	}
	if !finished {
		t.Fatal("Run body did not complete")
	}
}
