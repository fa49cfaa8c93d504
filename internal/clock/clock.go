// Package clock is the time plane: every layer that paces, times out,
// sweeps or measures does so through an injected Clock rather than the
// time package, so a whole node graph can run against either wall time
// (Real) or a discrete-event simulated time source (Virtual).
//
// Virtual is the payoff: it advances time only when every goroutine
// registered with it is parked on the clock, so a multi-second mission
// executes in milliseconds of wall time with identical timing semantics —
// the design of time-accurate protocol virtualization applied to the
// middleware's own stack. Determinism follows from the same property:
// same seed, same event order, same wire stats.
//
// The contract for code running under a Virtual clock:
//
//   - Registration is fixed at spawn. A goroutine is registered when it
//     is spawned with Go (or Virtual.Go), when it is the goroutine an
//     AfterFunc callback runs on, or for the duration of Virtual.Run;
//     time never advances while a registered goroutine is runnable. Run
//     does not nest.
//   - Only a registered goroutine parks on the clock, and only through
//     clock-managed operations — Sleep, SleepStop, Trigger.Wait,
//     Cond.Wait, Ticker.Wait — whose wake-ups decrement the parked count
//     at fire time, before the sleeper is runnable.
//   - A registered goroutine that must wait on a plain channel (an RPC
//     reply, a WaitGroup) wraps the wait in Blocking so virtual time may
//     advance while it waits. The wait itself must not park on the clock
//     again. The un-park there is best effort: time can briefly advance
//     past the wake-up, which is why hot loops use the managed
//     primitives instead.
//
// Parks do not identify their caller, so a breach is not detected in a
// normal build: it shows up as time advancing under running work, or as
// a stall. Race builds (go test -race) check every registration and
// park and panic with a message naming the broken rule.
//
// Timer/Ticker channels (C) keep stdlib semantics (capacity-1,
// non-blocking send) for unregistered consumers; registered goroutines
// should prefer the managed waits above.
package clock

import "time"

// Clock is the injected time source.
type Clock interface {
	// Now is the current instant on this clock.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep pauses the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that delivers on C after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker with period d (drift-free cadence).
	NewTicker(d time.Duration) Ticker
	// AfterFunc runs f on its own goroutine after d.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer mirrors time.Timer behind the Clock.
type Timer interface {
	// C delivers the fire instant (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer; false if it already fired or was stopped.
	Stop() bool
	// Reset re-arms the timer for d; reports whether it was active.
	Reset(d time.Duration) bool
}

// Ticker mirrors time.Ticker behind the Clock, plus a managed Wait for
// goroutines registered with a Virtual clock.
type Ticker interface {
	// C delivers ticks (capacity 1; ticks coalesce under a slow reader).
	C() <-chan time.Time
	// Stop cancels the ticker.
	Stop()
	// Wait parks until the next tick (true) or stop closes (false). This
	// is the loop-safe receive: under Virtual the wake-up is accounted at
	// fire time, so time cannot advance past the woken loop.
	Wait(stop <-chan struct{}) bool
}

// Go spawns fn registered with c when c is Virtual, as a plain goroutine
// otherwise. Every long-lived goroutine in a clock-injected component
// must be spawned this way or virtual time will advance while it runs.
func Go(c Clock, fn func()) {
	if v, ok := c.(*Virtual); ok {
		v.Go(fn)
		return
	}
	go fn()
}

// SleepStop sleeps d or until stop closes; false means stopped. It is
// the clock-safe form of the ubiquitous timer/stop select loop.
func SleepStop(c Clock, d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if v, ok := c.(*Virtual); ok {
		return v.sleepStop(d, stop)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// Blocking marks the calling registered goroutine as parked for the
// duration of wait, so a Virtual clock may advance while it blocks on
// something the clock cannot see (an RPC reply channel, a WaitGroup).
// wait must not park on the clock. On a Real clock it just runs wait.
func Blocking(c Clock, wait func()) {
	if v, ok := c.(*Virtual); ok {
		v.Blocking(wait)
		return
	}
	wait()
}

// Or returns c, or Real when c is nil — the idiom for optional clock
// configuration fields.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}
