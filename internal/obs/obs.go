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
// mirroring the PR 4 egress fast path; with no observer attached the epoch
// hot path pays one predictable branch and zero allocations. Enabled, an
// event costs a mutex, one copy into its ring slot and a cursor increment; a
// histogram observation a short scan of the bounds and two atomic adds. The
// exporters append their bytes by hand and the JSONL reader is one pass over
// a fixed grammar (see ReadJSONL), so neither allocates per event; the
// AllocsPerRun tests pin all of it, and DESIGN.md §11 has the numbers.
package obs

// Observer bundles the event tracer and the metrics registry handed to
// instrumented code. Either half may be nil (trace-only or metrics-only
// runs); every method tolerates a nil receiver and nil halves, so
// instrumentation wiring is unconditional and only the innermost hot-path
// guards need the `if o != nil` fast path.
//
// The tracer and registry are both safe for concurrent use: one Observer is
// shared across every trial worker of a parallel experiment run.
type Observer struct {
	tracer  *Tracer
	metrics *Registry
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

// Emit records an event if tracing is enabled; otherwise it is a branch.
func (o *Observer) Emit(e Event) {
	if o == nil || o.tracer == nil {
		return
	}
	o.tracer.emit(&e)
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
// upper bounds (ascending); a +Inf bucket is implicit.
func (o *Observer) Histogram(name string, buckets []float64) *Histogram {
	if o == nil || o.metrics == nil {
		return newHistogram(buckets)
	}
	return o.metrics.Histogram(name, buckets)
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
