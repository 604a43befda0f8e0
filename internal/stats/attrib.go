package stats

import (
	"fmt"
	"time"
)

// Delay attribution (DESIGN.md §Obs): every delivered packet's one-way delay
// decomposes into the exhaustive component set below. The components are
// accumulated as integer nanoseconds along the packet's lifecycle (netsim
// stamps the transitions), so their sum telescopes exactly — in integer
// arithmetic, not floating point — to the measured send→sink delay. The
// Attribution aggregate here is the per-cell/per-class rollup: component
// totals, an identity-violation ledger, and a fixed log-spaced histogram of
// the measured one-way delay.

// DelayComp identifies one component of a packet's one-way delay.
type DelayComp uint8

const (
	// DelayQueue is time spent waiting in a bottleneck buffer before
	// serialization starts.
	DelayQueue DelayComp = iota
	// DelaySerialize is time on the wire: first bit served to last bit
	// served (spanning multiple trace opportunities under RLC segmentation).
	DelaySerialize
	// DelayPropagate is fixed propagation toward the destination.
	DelayPropagate
	// DelayFaultHold is time attributable to fault processes: handover-stall
	// holds, stall-deferral at the home cell, and reorder re-delivery delays.
	DelayFaultHold
	// DelayDetour is time on inter-cell backhaul hops while a handed-over
	// user's traffic bounces via its serving sector.
	DelayDetour

	// NumDelayComps is the component count; arrays indexed by DelayComp use
	// it as their length.
	NumDelayComps = int(iota)
)

// delayCompNames are the short stable names used by renders and exporters.
var delayCompNames = [NumDelayComps]string{"queue", "ser", "prop", "fault", "detour"}

// String returns the component's short stable name ("queue", "ser", ...).
func (c DelayComp) String() string {
	if int(c) < NumDelayComps {
		return delayCompNames[c]
	}
	return fmt.Sprintf("DelayComp(%d)", uint8(c))
}

// attribBuckets is the total-delay histogram resolution: log-spaced bucket
// edges at 1 ms · 2^k, mirroring obs.DelayBuckets (1 ms .. ~33 s), plus an
// implicit zero/underflow bucket below and an overflow bucket above.
const attribBuckets = 16

// attribBucketEdge returns the upper edge of bucket k as a duration.
func attribBucketEdge(k int) time.Duration {
	return time.Millisecond << k
}

// Attribution aggregates per-packet delay decompositions: integer component
// sums (exact, order-independent), a one-way delay histogram, and the
// accounting-identity ledger. The zero value is ready to use. Attribution is
// not goroutine-safe; in the metro mesh each instance is owned by one cell
// timeline.
type Attribution struct {
	// CompNs[c] is the summed duration of component c across all recorded
	// packets, in nanoseconds.
	CompNs [NumDelayComps]int64
	// TotalNs is the summed measured one-way delay in nanoseconds.
	TotalNs int64
	// Count is the number of packets recorded.
	Count int64
	// Violations counts packets whose component sum did not equal the
	// measured delay — always zero unless a stamp point is missing or
	// misordered (the property tests and the attribution renders pin it).
	Violations int64
	// Negatives counts packets with a negative component — a misordered
	// stamp (marks must be monotone in virtual time).
	Negatives int64

	// totBuckets[k] counts packets whose measured one-way delay d fell in
	// bucket k: k=0 holds d < 1 ms (including exact zeros),
	// k=1..attribBuckets-1 hold edge(k-1) <= d < edge(k), and
	// k=attribBuckets holds the overflow.
	totBuckets [attribBuckets + 1]int64
}

// attribBucketOf returns the bucket index for duration d.
func attribBucketOf(d time.Duration) int {
	for k := 0; k < attribBuckets; k++ {
		if d < attribBucketEdge(k) {
			return k
		}
	}
	return attribBuckets
}

// Record folds one delivered packet's decomposition into the aggregate.
// total is the measured one-way delay; comps are the stamped components.
func (a *Attribution) Record(comps [NumDelayComps]time.Duration, total time.Duration) {
	a.Count++
	a.TotalNs += int64(total)
	var sum time.Duration
	for c := 0; c < NumDelayComps; c++ {
		d := comps[c]
		sum += d
		a.CompNs[c] += int64(d)
		if d < 0 {
			a.Negatives++
		}
	}
	if sum != total {
		a.Violations++
	}
	if total >= 0 {
		a.totBuckets[attribBucketOf(total)]++
	}
}

// Merge folds o into a, leaving o untouched.
func (a *Attribution) Merge(o *Attribution) {
	if o == nil {
		return
	}
	a.Count += o.Count
	a.TotalNs += o.TotalNs
	a.Violations += o.Violations
	a.Negatives += o.Negatives
	for c := 0; c < NumDelayComps; c++ {
		a.CompNs[c] += o.CompNs[c]
	}
	for k := range a.totBuckets {
		a.totBuckets[k] += o.totBuckets[k]
	}
}

// MeanTotalSeconds returns the mean measured one-way delay.
func (a *Attribution) MeanTotalSeconds() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.TotalNs) / float64(a.Count) / 1e9
}

// Share returns component c's fraction of the summed total delay (0 with no
// recorded delay).
func (a *Attribution) Share(c DelayComp) float64 {
	if a.TotalNs == 0 {
		return 0
	}
	return float64(a.CompNs[c]) / float64(a.TotalNs)
}

// TotalQuantileSeconds returns a bucket-resolution upper bound on the q-th
// percentile (0..100) of the measured one-way delay: it walks the cumulative
// histogram to the bucket holding that packet and returns the bucket's upper
// edge in seconds, deterministic at the histogram's resolution. The overflow
// bucket reports the last finite edge doubled.
func (a *Attribution) TotalQuantileSeconds(q float64) float64 {
	if a.Count == 0 {
		return 0
	}
	want := int64(q / 100 * float64(a.Count))
	if want >= a.Count {
		want = a.Count - 1
	}
	var cum int64
	for k := 0; k < attribBuckets; k++ {
		cum += a.totBuckets[k]
		if cum > want {
			return attribBucketEdge(k).Seconds()
		}
	}
	return (2 * attribBucketEdge(attribBuckets-1)).Seconds()
}
