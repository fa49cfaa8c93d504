package harness

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host the benchmark runs on is shared, and its speed drifts: while
// this benchmark was being sized, the reference task below took 22–40 ms
// over two and a half minutes of otherwise identical runs. Wall-clock and CPU figures are therefore scaled to a nominal host
// speed, measured in the same run by a fixed reference task that uses no
// middleware code, so a change to the middleware cannot move it.

// RefNominal is the reference task's duration on the nominal host. Scaled
// figures read as if measured on a host that runs the task in this time.
const RefNominal = 25 * time.Millisecond

// refRounds sizes the reference task: hashing and sorting a 32 KiB table,
// repeated, with no allocation.
const refRounds = 40

var refSink uint64

func refTask() uint64 {
	var buf [4096]uint64
	h := uint64(1)
	for r := 0; r < refRounds; r++ {
		for i := range buf {
			h += uint64(i) + 0x9e3779b97f4a7c15
			h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
			h ^= h >> 31
			buf[i] = h
		}
		s := buf[:]
		sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
		h += s[len(s)/2]
	}
	return h
}

// HostRef runs the reference task on every processor at once, five times,
// and returns the median wall time of one round: how fast the host is
// right now. It first completes a garbage collection, so background
// marking left over from the measurement does not slow the task.
func HostRef() time.Duration {
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	times := make([]float64, 0, 5)
	for k := 0; k < 5; k++ {
		start := time.Now()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := refTask()
				mu.Lock()
				refSink += v
				mu.Unlock()
			}()
		}
		wg.Wait()
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(Median(times))
}

// Scale is the factor that turns a time measured while the reference task
// took ref into the time on the nominal host (multiply durations and CPU
// times by it, divide rates by it).
func Scale(ref time.Duration) float64 {
	if ref <= 0 {
		return 1
	}
	return float64(RefNominal) / float64(ref)
}
