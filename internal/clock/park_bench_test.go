package clock

import (
	"sync"
	"testing"
	"time"
)

// BenchmarkVirtualPark measures one park on the virtual clock, end to
// end: the park, the event or signal that releases it, and the wake-up.
// trigger and cond are a signal→wait round trip between two registered
// goroutines (two parks per op); sleep is one Sleep that advances time;
// go spawns a registered goroutine that signals the spawner back.
func BenchmarkVirtualPark(b *testing.B) {
	b.Run("trigger", func(b *testing.B) {
		v := NewVirtual()
		ping, pong := NewTrigger(v), NewTrigger(v)
		stop := make(chan struct{})
		v.Run(func() {
			v.Go(func() {
				for ping.Wait(-1, stop) {
					pong.Signal()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ping.Signal()
				pong.Wait(-1, nil)
			}
			b.StopTimer()
			close(stop)
		})
	})
	b.Run("sleep", func(b *testing.B) {
		v := NewVirtual()
		v.Run(func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Sleep(time.Microsecond)
			}
		})
	})
	b.Run("cond", func(b *testing.B) {
		v := NewVirtual()
		var mu sync.Mutex
		c := NewCond(v, &mu)
		turn, done := 0, false
		v.Run(func() {
			v.Go(func() {
				mu.Lock()
				defer mu.Unlock()
				for {
					for turn != 1 && !done {
						c.Wait()
					}
					if done {
						return
					}
					turn = 0
					c.Signal()
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			mu.Lock()
			for i := 0; i < b.N; i++ {
				turn = 1
				c.Signal()
				for turn != 0 {
					c.Wait()
				}
			}
			done = true
			c.Signal()
			mu.Unlock()
			b.StopTimer()
		})
	})
	b.Run("go", func(b *testing.B) {
		v := NewVirtual()
		back := NewTrigger(v)
		v.Run(func() {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Go(back.Signal)
				back.Wait(-1, nil)
			}
		})
	})
}
