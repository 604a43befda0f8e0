// Package obs is the deterministic observability layer: a virtual-time
// structured event tracer, a metrics registry, and exporters (JSONL, Chrome
// trace_event, Prometheus text exposition) shared by the simulator, the
// Verus controller, the fault layer, and the real-UDP transport.
//
// Determinism contract (DESIGN.md §11): observability is strictly
// passive. Nothing in this package reads the wall clock — every Event is
// stamped by its producer with virtual time (netsim.Sim time, or the
// transport Clock's offset) — nothing draws randomness, and nothing feeds
// back into protocol arithmetic, so enabling tracing and metrics cannot
// move a single golden digest. The registry avoids the two float-determinism
// hazards the analyzer suite rejects: snapshots iterate sorted names (never
// raw map order), and histogram sums accumulate in fixed-point integers so
// concurrent recording from parallel trial workers stays order-independent.
//
// Cost contract: the disabled path is a nil check. Instrumented code holds a
// *Observer and guards every instrumentation point with `if o != nil`,
// like the fault layer's egress fast path; with no observer attached the epoch
// hot path pays one predictable branch and zero allocations. Enabled, a run
// that records from one goroutine does so through a Local (Observer.Local):
// an event is one copy into the Local's batch, and each full batch one lock
// and one copy into the ring; a histogram observation is a short scan of the
// bounds and plain integer adds, merged into the shared atomics at Flush. A
// Local's records reach the tracer and the registry only when published, so
// they are read after the runs that feed them return. On the shared
// Observer, which the metro cells, the transport and the checkpoint events
// record on, an event costs a mutex and a copy into its slot and an
// observation two atomic adds. The exporters append their bytes by hand and
// the JSONL reader is one pass over a fixed grammar (see ReadJSONL), so
// neither allocates per event; the AllocsPerRun tests pin all of it, and
// the package benchmarks (BenchmarkLocalEmit, BenchmarkWriteJSONL, …) time it.
package obs

// Observer bundles the event tracer and the metrics registry handed to
// instrumented code. Either half may be nil (trace-only or metrics-only
// runs); every method tolerates a nil receiver and nil halves, so
// instrumentation wiring is unconditional and only the innermost hot-path
// guards need the `if o != nil` fast path.
//
// The tracer and registry are both safe for concurrent use, so one Observer
// can be shared across every trial worker of a parallel experiment run. A
// run that records from one goroutine takes a Local of it instead.
type Observer struct {
	tracer  *Tracer
	metrics *Registry
	front   *front // non-nil on a Local
}

// LocalBatch is how many events a Local holds before it publishes them.
const LocalBatch = 256

// front is a Local's own state: the events not yet published and the
// histogram shadows it has handed out.
type front struct {
	n       int // events pending in batch
	batch   [LocalBatch]Event
	shadows []*Histogram
}

// Local returns a front on o for one goroutine. It shares o's tracer and
// registry, but records without their synchronization: Emit appends to a
// preallocated batch that reaches the ring, in emission order and under one
// tracer lock, each time it fills, with Seq stamped then; Histogram hands out
// plain-integer shadows of the registry's histograms. Flush publishes what is
// left and adds the shadows' counts and sums into the shared histograms, so
// a run recorded through a Local and flushed exports what the same run
// recorded through o exports. Until Flush, the tracer and registry do not
// hold all of the Local's records. Counters, gauges and RegisterCounter pass
// through to the shared registry unchanged. A nil o gives a nil Local.
func (o *Observer) Local() *Observer {
	if o == nil {
		return nil
	}
	return &Observer{tracer: o.tracer, metrics: o.metrics, front: new(front)}
}

// Flush publishes a Local's pending events and adds its histogram shadows'
// counts and sums into the shared histograms. It is a no-op on an Observer
// that is not a Local. The Local stays usable after it.
func (o *Observer) Flush() {
	if o == nil || o.front == nil {
		return
	}
	f := o.front
	if f.n > 0 {
		o.tracer.publish(f.batch[:f.n])
		f.n = 0
	}
	for _, h := range f.shadows {
		h.local.flush()
	}
}

// NewObserver returns an Observer over the given halves. Either may be nil.
func NewObserver(t *Tracer, m *Registry) *Observer {
	return &Observer{tracer: t, metrics: m}
}

// Tracer returns the event tracer (nil when tracing is disabled).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Registry returns the metrics registry (nil when metrics are disabled).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Emit records a copy of *e if tracing is enabled; otherwise it is a branch.
// It does not keep e, so a caller's &Event{...} literal stays on its stack.
func (o *Observer) Emit(e *Event) {
	if o == nil || o.tracer == nil {
		return
	}
	if f := o.front; f != nil {
		f.batch[f.n] = *e
		if f.n++; f.n == LocalBatch {
			o.tracer.publish(f.batch[:])
			f.n = 0
		}
		return
	}
	o.tracer.emit(e)
}

// Counter returns the registry counter with the given full name, or a
// detached counter when metrics are disabled — so instrumented code can
// resolve its instruments once and record unconditionally.
func (o *Observer) Counter(name string) *Counter {
	if o == nil || o.metrics == nil {
		return new(Counter)
	}
	return o.metrics.Counter(name)
}

// Gauge is the gauge analogue of Counter.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil || o.metrics == nil {
		return new(Gauge)
	}
	return o.metrics.Gauge(name)
}

// Histogram is the histogram analogue of Counter. buckets are the fixed
// upper bounds (ascending); a +Inf bucket is implicit. On a Local it returns
// the one shadow of the registry histogram it hands out for name, which
// Flush merges.
func (o *Observer) Histogram(name string, buckets []float64) *Histogram {
	if o == nil || o.metrics == nil {
		return newHistogram(buckets)
	}
	h := o.metrics.Histogram(name, buckets)
	if o.front == nil {
		return h
	}
	for _, s := range o.front.shadows {
		if s.local.shared == h {
			return s
		}
	}
	s := newShadow(h)
	o.front.shadows = append(o.front.shadows, s)
	return s
}

// RegisterCounter adopts an externally owned counter into the registry (the
// thin-adapter path: a subsystem keeps its counter and its legacy accessor,
// and the registry exposes the same instrument). No-op when metrics are
// disabled.
func (o *Observer) RegisterCounter(name string, c *Counter) {
	if o == nil || o.metrics == nil || c == nil {
		return
	}
	o.metrics.RegisterCounter(name, c)
}

// SyncTraceDropped publishes the tracer's ring-overflow count into the
// metrics registry as the counter obs_trace_dropped_total, so a Prometheus
// scrape shows whether the exported trace is complete. Call it once, right
// before exporting the registry; it is a no-op when either half is disabled.
func (o *Observer) SyncTraceDropped() {
	if o == nil || o.tracer == nil || o.metrics == nil {
		return
	}
	o.metrics.Counter("obs_trace_dropped_total").Restore(int64(o.tracer.Dropped()))
}

// Observable is implemented by components that can attach themselves to an
// Observer — controllers, links, transports. run labels the trial (the
// harness passes the derived per-trial seed) and flow the flow index, so
// metric series from parallel trials stay distinct.
type Observable interface {
	Observe(o *Observer, run int64, flow int)
}
