// Package harness holds the benchmark's measurement machinery: percentile
// and due-time latency arithmetic, the span store and self-time
// computation, CPU-profile attribution by middleware package, metric
// registry deltas, and the tracing wrappers that sit on the container's
// public plug points (transport, scheduler, encoding).
package harness

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// MinBeyond is the number of samples that must lie beyond a percentile for
// the sample to support it: a p99 needs at least 1000 samples.
const MinBeyond = 10

// ErrThinTail reports a percentile the sample is too small to support.
var ErrThinTail = errors.New("harness: fewer than 10 samples beyond the percentile")

// Lost is the latency recorded for an operation that never completed: it
// lies beyond every latency limit.
var Lost = math.Inf(1)

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with ErrThinTail, a percentile with fewer than MinBeyond samples
// above its rank. xs is sorted in place.
func Percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, ErrThinTail
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n-rank < MinBeyond {
		return 0, ErrThinTail
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank-1], nil
}

// ChunkPercentile splits xs, in measurement order, into consecutive chunks
// of size chunk (dropping a short tail), takes the p-quantile of each
// chunk that can support it, and returns the median of those: the tail a
// typical stretch of the run sees, robust to a few disturbed stretches.
func ChunkPercentile(xs []float64, chunk int, p float64) (float64, error) {
	var per []float64
	for lo := 0; chunk > 0 && lo+chunk <= len(xs); lo += chunk {
		c := append([]float64(nil), xs[lo:lo+chunk]...)
		if v, err := Percentile(c, p); err == nil {
			per = append(per, v)
		}
	}
	if len(per) == 0 {
		return 0, ErrThinTail
	}
	return Median(per), nil
}

// Median returns the middle value of xs (mean of the two middle values for
// an even count), sorting xs in place; 0 for an empty slice. It is for
// summarising repeated measurements, where the ten-beyond rule does not
// apply.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Timeline records, for a fixed set of operations indexed 0..n-1, the
// instant each operation's latency is measured from (when it was due, or
// when it was issued) and when it completed, both as nanoseconds on a
// common base. Completion is safe from any goroutine.
type Timeline struct {
	start []int64
	done  []atomic.Int64
}

// NewTimeline returns a timeline for n operations.
func NewTimeline(n int) *Timeline {
	return &Timeline{start: make([]int64, n), done: make([]atomic.Int64, n)}
}

// Len is the number of operation slots.
func (t *Timeline) Len() int { return len(t.start) }

// SetStart records the instant operation i's latency is measured from.
// Only the generator that owns operation i calls it, before issuing it.
func (t *Timeline) SetStart(i int, ns int64) { t.start[i] = ns }

// Done returns when operation i completed, or 0 if it never did.
func (t *Timeline) Done(i int) int64 { return t.done[i].Load() }

// Complete records operation i's first completion at ns (clamped to at
// least 1 so that zero keeps meaning "never"). It reports false for a
// repeated completion, which callers count as a duplicate delivery.
func (t *Timeline) Complete(i int, ns int64) bool {
	if ns < 1 {
		ns = 1
	}
	return t.done[i].CompareAndSwap(0, ns)
}

// Completed counts operations among the first n that completed.
func (t *Timeline) Completed(n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if t.done[i].Load() != 0 {
			c++
		}
	}
	return c
}

// Latencies returns the start-to-completion latency in microseconds of
// each of the first n operations; an operation that never completed is
// Lost.
func (t *Timeline) Latencies(n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		d := t.done[i].Load()
		if d == 0 {
			out[i] = Lost
			continue
		}
		out[i] = float64(d-t.start[i]) / 1e3
	}
	return out
}

// epoch is the harness's monotonic time base.
var epoch = time.Now()

// Now returns nanoseconds since the measurement epoch (monotonic).
func Now() int64 { return int64(time.Since(epoch)) }

// Bitset is a fixed-size set of operation numbers, safe for concurrent
// insertion; the benchmark uses it to check exactly-once delivery where
// operations are too many to timestamp individually.
type Bitset struct{ words []atomic.Uint64 }

// NewBitset returns a set able to hold 0..n-1.
func NewBitset(n int) *Bitset { return &Bitset{words: make([]atomic.Uint64, (n+63)/64)} }

// Add inserts i and reports whether it was absent.
func (b *Bitset) Add(i int) bool {
	w, bit := &b.words[i/64], uint64(1)<<(uint(i)%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// Count returns the number of members.
func (b *Bitset) Count() int {
	c := 0
	for i := range b.words {
		v := b.words[i].Load()
		for v != 0 {
			v &= v - 1
			c++
		}
	}
	return c
}
