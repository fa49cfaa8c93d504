package harness

import (
	"uavmw/internal/metrics"
)

// Registry figures come from Node.MetricsSnapshot(): one snapshot per node
// at the start and end of the measured window. A family is addressed by
// component and name ("arq", "retransmits"); its series (per bearer, per
// class, per shard) and the snapshots of several nodes are summed.

// Total sums every counter and gauge series of component.name across the
// snapshots. Families absent from a snapshot contribute nothing.
func Total(snaps []metrics.Snapshot, component, name string) float64 {
	var sum float64
	for _, s := range snaps {
		for _, f := range s.Families {
			if f.Component != component || f.Name != name {
				continue
			}
			for _, se := range f.Series {
				switch {
				case se.Counter != nil:
					sum += float64(*se.Counter)
				case se.Gauge != nil:
					sum += float64(*se.Gauge)
				}
			}
		}
	}
	return sum
}

// HistTotal sums the count and value sum of every histogram series of
// component.name across the snapshots.
func HistTotal(snaps []metrics.Snapshot, component, name string) (count uint64, sum int64) {
	for _, s := range snaps {
		for _, f := range s.Families {
			if f.Component != component || f.Name != name {
				continue
			}
			for _, se := range f.Series {
				if se.Histogram != nil {
					count += se.Histogram.Count
					sum += se.Histogram.SumNS
				}
			}
		}
	}
	return count, sum
}

// Window holds the snapshots that bound one measured window.
type Window struct {
	Before, After []metrics.Snapshot
}

// Delta is how much component.name grew over the window.
func (w Window) Delta(component, name string) float64 {
	return Total(w.After, component, name) - Total(w.Before, component, name)
}

// HistMean is the mean value observed by the component.name histograms
// over the window (0 when nothing was observed).
func (w Window) HistMean(component, name string) float64 {
	c1, s1 := HistTotal(w.After, component, name)
	c0, s0 := HistTotal(w.Before, component, name)
	if c1 <= c0 {
		return 0
	}
	return float64(s1-s0) / float64(c1-c0)
}

// Ratio divides two deltas, returning 0 when the denominator did not move.
func (w Window) Ratio(numComp, numName, denComp, denName string) float64 {
	d := w.Delta(denComp, denName)
	if d == 0 {
		return 0
	}
	return w.Delta(numComp, numName) / d
}
