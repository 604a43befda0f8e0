package stats

import "math"

// LogHistogram bins positive samples into logarithmically spaced buckets and
// reports an empirical PDF, matching the log-log burst-size and inter-arrival
// distributions of Figure 2 in the paper.
type LogHistogram struct {
	base       float64 // bucket edges grow by this factor
	minEdge    float64 // left edge of bucket 0
	counts     []int
	total      int
	underflow  int
	numBuckets int
}

// NewLogHistogram returns a histogram with numBuckets buckets whose edges are
// minEdge·base^k for k = 0..numBuckets. Samples below minEdge are counted as
// underflow; samples beyond the last edge land in the final bucket.
func NewLogHistogram(minEdge, base float64, numBuckets int) *LogHistogram {
	if minEdge <= 0 || base <= 1 || numBuckets <= 0 {
		panic("stats: invalid LogHistogram parameters")
	}
	return &LogHistogram{
		base:       base,
		minEdge:    minEdge,
		counts:     make([]int, numBuckets),
		numBuckets: numBuckets,
	}
}

// Add records one sample. Non-positive samples count as underflow.
func (h *LogHistogram) Add(v float64) {
	h.total++
	if v < h.minEdge {
		h.underflow++
		return
	}
	k := int(math.Log(v/h.minEdge) / math.Log(h.base))
	if k >= h.numBuckets {
		k = h.numBuckets - 1
	}
	h.counts[k]++
}

// BucketEdge returns the left edge of bucket k.
func (h *LogHistogram) BucketEdge(k int) float64 {
	return h.minEdge * math.Pow(h.base, float64(k))
}

// PDF returns (center, density) pairs for each non-empty bucket. Density is
// the fraction of all samples per unit of x, so the series integrates to
// roughly the captured fraction, as in the paper's Figure 2 PDFs.
func (h *LogHistogram) PDF() (centers, densities []float64) {
	if h.total == 0 {
		return nil, nil
	}
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := h.BucketEdge(k)
		hi := h.BucketEdge(k + 1)
		centers = append(centers, math.Sqrt(lo*hi))
		densities = append(densities, float64(c)/float64(h.total)/(hi-lo))
	}
	return centers, densities
}
