package clock

import (
	"sync"
	"time"
)

// Trigger is a coalescing wake-up for single-consumer work loops of the
// shape `for { drain work; wait for more or a deadline }` — the netsim
// delivery loop, egress lane drains, the discovery offer flush. Signal
// from any goroutine wakes the parked waiter (or is remembered if none
// is parked); Wait parks until a signal, an optional deadline, or stop.
//
// Under a Virtual clock the wake-up is accounted inside the clock lock,
// so virtual time cannot advance past a loop that has just been
// signalled — the property that keeps event delivery time-accurate.
type Trigger interface {
	// Signal wakes the parked waiter, or marks a pending wake-up.
	Signal()
	// Wait parks until Signal, the deadline d (d < 0 means no deadline),
	// or stop. It returns false only when stop closed; deadline expiry
	// and signals both return true (the loop re-checks its work either
	// way).
	Wait(d time.Duration, stop <-chan struct{}) bool
}

// NewTrigger builds a trigger bound to c.
func NewTrigger(c Clock) Trigger {
	if v, ok := c.(*Virtual); ok {
		return newVirtualTrigger(v)
	}
	return &realTrigger{ch: make(chan struct{}, 1)}
}

// realTrigger is a capacity-1 channel: a buffered token is exactly the
// "pending wake-up" state, and reusing one channel for the life of the
// trigger keeps the park/unpark cycle allocation-free (the egress drainers
// park once per drained burst — with a per-Wait channel that alloc shows
// up in the wire path's per-frame cost).
type realTrigger struct {
	ch chan struct{}
}

func (t *realTrigger) Signal() {
	select {
	case t.ch <- struct{}{}:
	default: // a wake-up is already pending; coalesce
	}
}

func (t *realTrigger) Wait(d time.Duration, stop <-chan struct{}) bool {
	var tc <-chan time.Time
	if d >= 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		tc = tm.C
	}
	select {
	case <-t.ch:
		return true
	case <-tc:
		return true
	case <-stop:
		return false
	}
}

// virtualTrigger parks its single consumer on a capacity-1 channel it
// reuses for every Wait, like realTrigger, so a park allocates nothing
// but its deadline event.
type virtualTrigger struct {
	v        *Virtual
	wake     chan struct{} // the parked waiter's wake-up token
	deadline func()        // t.deadlineFired, bound once
	pending  bool          // guarded by v.mu
	parked   bool          // a waiter is parked (guarded by v.mu)
	ev       *event        // the parked waiter's deadline (guarded by v.mu)
}

func newVirtualTrigger(v *Virtual) *virtualTrigger {
	t := &virtualTrigger{v: v, wake: make(chan struct{}, 1)}
	t.deadline = t.deadlineFired
	return t
}

// wakeLocked releases the parked waiter. Caller holds v.mu.
func (t *virtualTrigger) wakeLocked() {
	t.parked = false
	t.v.blocked--
	t.wake <- struct{}{}
}

// deadlineFired runs under v.mu.
func (t *virtualTrigger) deadlineFired() {
	t.ev = nil
	t.wakeLocked()
}

func (t *virtualTrigger) Signal() {
	v := t.v
	v.mu.Lock()
	if t.parked {
		if t.ev != nil {
			v.removeLocked(t.ev)
			t.ev = nil
		}
		t.wakeLocked()
	} else {
		t.pending = true
	}
	v.mu.Unlock()
}

func (t *virtualTrigger) Wait(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	v := t.v
	v.contract.park()
	v.mu.Lock()
	if t.pending {
		t.pending = false
		v.mu.Unlock()
		return true
	}
	t.parked = true
	if d >= 0 {
		t.ev = v.scheduleLocked(d, t.deadline)
	}
	v.parkLocked()
	v.mu.Unlock()
	select {
	case <-t.wake:
		return true
	case <-stop:
		v.mu.Lock()
		if t.parked {
			t.parked = false
			if t.ev != nil {
				v.removeLocked(t.ev)
				t.ev = nil
			}
			v.blocked--
		} else {
			<-t.wake // woken in the same window; the token was sent under v.mu
		}
		v.mu.Unlock()
		return false
	}
}

// Cond is sync.Cond behind the Clock: workers idling in a scheduler pool
// park on it, and under a Virtual clock a Signal releases the woken
// waiter's parked count inside the clock lock — virtual time cannot
// advance past a just-dispatched job. FIFO wake order.
type Cond struct {
	// L is held by callers of Wait, as with sync.Cond.
	L sync.Locker

	v       *Virtual   // nil on a real clock
	mu      sync.Mutex // guards waiters on a real clock (v.mu otherwise)
	waiters []chan struct{}
}

// NewCond builds a condition variable bound to c with locker l.
func NewCond(c Clock, l sync.Locker) *Cond {
	v, _ := c.(*Virtual)
	return &Cond{L: l, v: v}
}

// Wait atomically releases L and parks until Signal/Broadcast, then
// re-acquires L. As with sync.Cond, callers re-check their predicate in
// a loop.
func (c *Cond) Wait() {
	ch := make(chan struct{})
	if c.v != nil {
		c.v.contract.park()
		c.v.mu.Lock()
		c.waiters = append(c.waiters, ch)
		c.v.parkLocked()
		c.v.mu.Unlock()
	} else {
		c.mu.Lock()
		c.waiters = append(c.waiters, ch)
		c.mu.Unlock()
	}
	c.L.Unlock()
	<-ch
	c.L.Lock()
}

// Signal wakes the longest-parked waiter, if any.
func (c *Cond) Signal() {
	if c.v != nil {
		c.v.mu.Lock()
		if len(c.waiters) > 0 {
			ch := c.waiters[0]
			c.waiters = c.waiters[1:]
			c.v.blocked--
			close(ch)
		}
		c.v.mu.Unlock()
		return
	}
	c.mu.Lock()
	if len(c.waiters) > 0 {
		ch := c.waiters[0]
		c.waiters = c.waiters[1:]
		close(ch)
	}
	c.mu.Unlock()
}

// Broadcast wakes every parked waiter.
func (c *Cond) Broadcast() {
	if c.v != nil {
		c.v.mu.Lock()
		for _, ch := range c.waiters {
			c.v.blocked--
			close(ch)
		}
		c.waiters = nil
		c.v.mu.Unlock()
		return
	}
	c.mu.Lock()
	for _, ch := range c.waiters {
		close(ch)
	}
	c.waiters = nil
	c.mu.Unlock()
}
