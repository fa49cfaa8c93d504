//go:build race

package clock

import (
	"runtime"
	"sync"
)

// contract checks the Virtual registration rules (see the package doc)
// in race builds, where identifying the calling goroutine by parsing its
// stack header costs little next to the detector itself. A breach
// panics with a message naming the broken rule.
type contract struct {
	mu sync.Mutex
	g  map[int64]bool // registered goroutine id -> parked inside Blocking
}

const (
	ruleUnregistered = "clock: park from a goroutine not registered with this Virtual clock (spawn it with Go, Run or an AfterFunc callback)"
	ruleBlocking     = "clock: park inside Blocking's wait (the goroutine is already parked; wait on something other than the clock)"
	ruleNestedRun    = "clock: nested Run (the calling goroutine is already registered with this Virtual clock)"
)

// register records the calling goroutine as registered. Only Run can
// find it registered already: Go and AfterFunc register new goroutines.
func (c *contract) register() {
	id := gid()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.g[id]; ok {
		panic(ruleNestedRun)
	}
	if c.g == nil {
		c.g = make(map[int64]bool)
	}
	c.g[id] = false
}

func (c *contract) unregister() {
	id := gid()
	c.mu.Lock()
	delete(c.g, id)
	c.mu.Unlock()
}

// park checks that the caller may park on the clock.
func (c *contract) park() {
	id := gid()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parkLocked(id)
}

func (c *contract) parkLocked(id int64) {
	inBlocking, ok := c.g[id]
	switch {
	case !ok:
		panic(ruleUnregistered)
	case inBlocking:
		panic(ruleBlocking)
	}
}

// enterBlocking checks that the caller may park, then records it as
// parked inside Blocking until exitBlocking.
func (c *contract) enterBlocking() {
	id := gid()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parkLocked(id)
	c.g[id] = true
}

func (c *contract) exitBlocking() {
	id := gid()
	c.mu.Lock()
	c.g[id] = false
	c.mu.Unlock()
}

// gid extracts the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func gid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
