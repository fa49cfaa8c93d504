package harness

import (
	"math/bits"
	"sync/atomic"
)

// subBuckets splits each power-of-two range of a Hist into this many
// linear buckets, bounding the relative error of a reported percentile to
// 1/subBuckets.
const subBuckets = 16

// Hist is a lock-free log-linear histogram of non-negative integer values
// (nanoseconds, in practice). The tracing wrappers observe every call into
// it, so per-call timing statistics cost two atomic adds and no memory
// growth however long the run.
type Hist struct {
	count   atomic.Uint64
	buckets [64 * subBuckets]atomic.Uint64
}

// bucketOf maps v to its bucket index.
func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	shift := exp - 4                 // log2(subBuckets)
	return (exp-3)*subBuckets + int((uint64(v)>>uint(shift))&(subBuckets-1))
}

// bucketUpper returns the largest value that maps to bucket i.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + 3
	sub := int64(i % subBuckets)
	shift := uint(exp - 4)
	return ((subBuckets+sub+1)<<shift - 1)
}

// Observe adds one value.
func (h *Hist) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
}

// Count is the number of observed values.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Percentile returns the upper bound of the bucket holding the nearest-rank
// p-quantile, refusing (ErrThinTail) when fewer than MinBeyond values lie
// above that rank.
func (h *Hist) Percentile(p float64) (int64, error) {
	var counts [64 * subBuckets]uint64
	var n uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 || p <= 0 || p >= 1 {
		return 0, ErrThinTail
	}
	rank := uint64(p*float64(n) + 0.999999999)
	if rank == 0 {
		rank = 1
	}
	if n-rank < MinBeyond {
		return 0, ErrThinTail
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return bucketUpper(i), nil
		}
	}
	return bucketUpper(len(counts) - 1), nil
}
