package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use, so subsystems embed counters directly and hand the registry
// a pointer (the thin-adapter pattern: the legacy accessor and the metrics
// exposition read the same instrument). Nil counters discard records.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Restore replaces the count with a checkpointed value. It exists for
// snapshot restore only; within a run counters stay monotone via Inc/Add.
func (c *Counter) Restore(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Gauge is an atomic last-write-wins float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// sumScale is the fixed-point scale of histogram sums: nano-units. Integer
// accumulation is commutative, so the exposed sum is identical no matter how
// parallel trial workers interleave their Observe calls — float addition
// would make the .prom file depend on scheduling (the floatorder hazard).
const sumScale = 1e9

// The observations a fixed-point sum cannot hold set a flag instead: NaN,
// and anything at or beyond ±2⁶³ nano-units, which float addition would
// carry as ±Inf. Flags are or-ed, so they too are order-independent.
const (
	sumNaN uint32 = 1 << iota
	sumPosInf
	sumNegInf
)

// fixedPoint returns v in sumScale units, or 0 and the flag v sets when it
// has none.
func fixedPoint(v float64) (int64, uint32) {
	switch x := v * sumScale; {
	case x > -0x1p63 && x < 0x1p63:
		return int64(x), 0
	case x > 0:
		return 0, sumPosInf
	case x < 0:
		return 0, sumNegInf
	default:
		return 0, sumNaN
	}
}

// sumValue reads a fixed-point sum and its flags as a float sum of the same
// observations would read: NaN once a NaN or both infinities were seen, ±Inf
// once one infinity was.
func sumValue(fixed int64, flags uint32) float64 {
	switch {
	case flags&sumNaN != 0 || flags == sumPosInf|sumNegInf:
		return math.NaN()
	case flags == sumPosInf:
		return math.Inf(1)
	case flags == sumNegInf:
		return math.Inf(-1)
	}
	return float64(fixed) / sumScale
}

// Histogram counts observations into fixed buckets chosen at construction.
// Bounds are upper bounds, ascending; an implicit +Inf bucket catches the
// tail. All mutation is atomic, except on a Local's shadow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; counts[i] covers (bounds[i-1], bounds[i]]
	sum    atomic.Int64   // fixed-point, sumScale units
	flags  atomic.Uint32  // sumNaN, sumPosInf, sumNegInf
	local  shadow         // set on a Local's shadow, whose counts is then nil
}

// shadow is what a Local's histogram has recorded since its last Flush, in
// plain integers: one goroutine writes them, and Flush adds them into the
// shared histogram's atomics.
type shadow struct {
	shared *Histogram // nil on a histogram that is not a shadow
	counts []int64
	sum    int64
	flags  uint32
}

func newShadow(shared *Histogram) *Histogram {
	return &Histogram{bounds: shared.bounds,
		local: shadow{shared: shared, counts: make([]int64, len(shared.counts))}}
}

// flush adds the recorded deltas into the shared histogram and clears them.
// Integer addition is associative, so the shared sum is the one per-call
// atomic adds would have left.
func (s *shadow) flush() {
	h := s.shared
	for i, n := range s.counts {
		h.counts[i].Add(n)
	}
	h.sum.Add(s.sum)
	h.setFlags(s.flags)
	clear(s.counts)
	s.sum, s.flags = 0, 0
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records v into its bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// The first bound >= v, as sort.SearchFloat64s finds it; a handful of
	// bounds are scanned faster than they are bisected through a closure.
	// Written as !(bound >= v) so that NaN lands in +Inf, as it does there.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	fixed, flag := fixedPoint(v)
	if s := &h.local; s.shared != nil {
		s.counts[i]++
		s.sum += fixed
		s.flags |= flag
		return
	}
	h.counts[i].Add(1)
	if flag == 0 {
		h.sum.Add(fixed)
	} else {
		h.setFlags(flag)
	}
}

// setFlags ors f into the sum's flags; it is off the hot path, which is why
// a compare-and-swap loop serves.
func (h *Histogram) setFlags(f uint32) {
	for {
		old := h.flags.Load()
		if old|f == old || h.flags.CompareAndSwap(old, old|f) {
			return
		}
	}
}

// Sum returns the sum of observations (fixed-point accumulated): NaN or
// ±Inf from the first observation that a float sum would turn into one. On
// a Local's shadow it reads the shared histogram: every flushed
// observation, from every front.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	if h.local.shared != nil {
		h = h.local.shared
	}
	return sumValue(h.sum.Load(), h.flags.Load())
}

// DelayBuckets is the shared bound set for delay/RTT histograms: 1 ms to
// ~33 s in powers of two, covering cellular bufferbloat's full range.
var DelayBuckets = func() []float64 {
	b := make([]float64, 16)
	v := 0.001
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// MetricKind distinguishes the registry's instrument types.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer (also the Prometheus TYPE keyword).
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", uint8(k))
	}
}

// series is one registered instrument under its full (labeled) name.
type series struct {
	kind MetricKind
	ctr  *Counter
	gau  *Gauge
	his  *Histogram
}

// Registry is a concurrent metrics registry with get-or-create semantics
// and snapshot-on-demand exposition. Names are full series names including
// any label block ("verus_relearns_total{flow=\"0\",run=\"42\"}" — see
// Labeled); the text exporter groups series into families by the name
// before the label block.
//
// Registration and recording never iterate the series map; only Snapshot
// does, over sorted names, so exposition order is deterministic and no
// float is accumulated under randomized map order.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{series: make(map[string]*series)} }

func (r *Registry) get(name string, kind MetricKind) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %q registered as %v, requested as %v", name, s.kind, kind))
		}
		return s
	}
	s := &series{kind: kind}
	r.series[name] = s
	return s
}

// Counter returns the counter registered under name, creating it if absent.
// It panics if name is registered as a different kind.
func (r *Registry) Counter(name string) *Counter {
	s := r.get(name, KindCounter)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ctr == nil {
		s.ctr = new(Counter)
	}
	return s.ctr
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	s := r.get(name, KindGauge)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gau == nil {
		s.gau = new(Gauge)
	}
	return s.gau
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if absent (bounds of an existing histogram win).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	s := r.get(name, KindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.his == nil {
		s.his = newHistogram(bounds)
	}
	return s.his
}

// RegisterCounter adopts an externally owned counter under name, replacing
// any previous registration of that name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.series[name] = &series{kind: KindCounter, ctr: c}
}

// Sample is one series' state in a Snapshot.
type Sample struct {
	// Name is the full series name including any label block.
	Name string
	Kind MetricKind
	// Value is the counter or gauge value (unused for histograms).
	Value float64
	// Count, Sum, and Buckets describe a histogram; Buckets[i] is the
	// cumulative count of observations <= BucketBounds[i], and an implicit
	// +Inf bucket equals Count.
	Count        int64
	Sum          float64
	BucketBounds []float64
	Buckets      []int64
}

// Snapshot returns every series sorted by name. It is the only place the
// registry iterates its map, and it does so over sorted keys — exposition
// is byte-stable for a given set of recorded values.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	// Every histogram's bounds and buckets are carved from these two, so a
	// snapshot allocates the same number of times however many it holds.
	nb := 0
	for _, name := range names {
		if s := r.series[name]; s.kind == KindHistogram {
			nb += len(s.his.bounds)
		}
	}
	bounds, buckets := make([]float64, nb), make([]int64, nb)
	for _, name := range names {
		s := r.series[name]
		smp := Sample{Name: name, Kind: s.kind}
		switch s.kind {
		case KindCounter:
			smp.Value = float64(s.ctr.Value())
		case KindGauge:
			smp.Value = s.gau.Value()
		case KindHistogram:
			h := s.his
			smp.Sum = h.Sum()
			k := len(h.bounds)
			smp.BucketBounds, bounds = bounds[:k:k], bounds[k:]
			smp.Buckets, buckets = buckets[:k:k], buckets[k:]
			copy(smp.BucketBounds, h.bounds)
			var cum int64
			for i := range h.bounds {
				cum += h.counts[i].Load()
				smp.Buckets[i] = cum
			}
			smp.Count = cum + h.counts[len(h.bounds)].Load()
		}
		out = append(out, smp)
	}
	return out
}

// Labeled builds a full series name "name{k1=\"v1\",k2=\"v2\"}" from
// alternating key/value pairs. Label values are escaped per the Prometheus
// text format. No pairs returns name unchanged. The name is built in one
// allocation unless a value needs escaping.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Labeled requires alternating key/value pairs")
	}
	// Besides its key and value, each pair takes `="`, `"` and a ',' or '}'.
	n := len(name) + 1 + 2*len(kv)
	for _, s := range kv {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		writeLabelValue(&b, kv[i+1])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeLabelValue writes v escaped per the Prometheus text format.
func writeLabelValue(b *strings.Builder, v string) {
	if !strings.ContainsAny(v, "\\\"\n") {
		b.WriteString(v)
		return
	}
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
}
