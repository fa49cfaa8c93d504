package harness

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// CPUTime returns the process's user+system CPU time (getrusage).
func CPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime samples Go runtime counters through runtime/metrics, which reads
// them without stopping the world.
type Runtime struct {
	samples []metrics.Sample
}

// Indices into Runtime.samples.
const (
	rtHeapObjects = iota
	rtHeapUnused
	rtAllocObjects
	rtAllocBytes
	rtGCCycles
	rtGCPauses
)

// NewRuntime prepares the runtime/metrics reads.
func NewRuntime() *Runtime {
	names := []string{
		"/memory/classes/heap/objects:bytes",
		"/memory/classes/heap/unused:bytes",
		"/gc/heap/allocs:objects",
		"/gc/heap/allocs:bytes",
		"/gc/cycles/total:gc-cycles",
		"/sched/pauses/total/gc:seconds",
	}
	r := &Runtime{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.samples[i].Name = n
	}
	return r
}

// RuntimeStats is one reading.
type RuntimeStats struct {
	HeapInuse   uint64 // bytes in in-use heap spans (HeapInuse)
	Mallocs     uint64
	AllocBytes  uint64
	GCCycles    uint64
	PauseCounts []uint64  // GC stop-the-world pause histogram counts
	PauseBounds []float64 // bucket boundaries in seconds (len(PauseCounts)+1)
}

// Read takes one reading.
func (r *Runtime) Read() RuntimeStats {
	metrics.Read(r.samples)
	u := func(i int) uint64 {
		if r.samples[i].Value.Kind() == metrics.KindUint64 {
			return r.samples[i].Value.Uint64()
		}
		return 0
	}
	st := RuntimeStats{
		HeapInuse:  u(rtHeapObjects) + u(rtHeapUnused),
		Mallocs:    u(rtAllocObjects),
		AllocBytes: u(rtAllocBytes),
		GCCycles:   u(rtGCCycles),
	}
	if r.samples[rtGCPauses].Value.Kind() == metrics.KindFloat64Histogram {
		h := r.samples[rtGCPauses].Value.Float64Histogram()
		st.PauseCounts = append([]uint64(nil), h.Counts...)
		st.PauseBounds = h.Buckets
	}
	return st
}

// PauseP99 returns the p99 GC pause in microseconds between two readings,
// as the upper bound of the bucket holding it, or ErrThinTail when fewer
// than 1000 pauses happened in between.
func PauseP99(before, after RuntimeStats) (float64, error) {
	if len(after.PauseCounts) == 0 || len(before.PauseCounts) != len(after.PauseCounts) {
		return 0, ErrThinTail
	}
	var n uint64
	d := make([]uint64, len(after.PauseCounts))
	for i := range d {
		d[i] = after.PauseCounts[i] - before.PauseCounts[i]
		n += d[i]
	}
	rank := uint64(0.99*float64(n) + 0.999999999)
	if n == 0 || n-rank < MinBeyond {
		return 0, ErrThinTail
	}
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			return after.PauseBounds[i+1] * 1e6, nil
		}
	}
	return 0, ErrThinTail
}
