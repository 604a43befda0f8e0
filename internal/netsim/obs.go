package netsim

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// linkObs is a link's observability attachment: trace events for the packet
// life cycle (enqueue, drop, deliver) plus aggregate counters and a sojourn
// histogram in the metrics registry. A nil *linkObs is the disabled state.
// Call sites guard with `l.obs != nil` so the disabled per-packet path is a
// single predictable branch — the methods are too large to inline, and their
// arguments (Queue.Len/Bytes interface calls) must not be evaluated when no
// observer is attached. The nil checks inside each method are a safety net,
// not the fast path.
type linkObs struct {
	o         *obs.Observer
	run       int64
	enqueued  *obs.Counter
	dropped   *obs.Counter
	delivered *obs.Counter
	sojourn   *obs.Histogram
}

// newLinkObs resolves the link metric instruments, labeled by run so
// parallel trials sharing one observer stay distinct. Returns nil for a nil
// observer.
func newLinkObs(o *obs.Observer, run int64) *linkObs {
	if o == nil {
		return nil
	}
	runID := strconv.FormatInt(run, 10)
	label := func(name string) string {
		return obs.Labeled(name, "run", runID)
	}
	return &linkObs{
		o:         o,
		run:       run,
		enqueued:  o.Counter(label("netsim_enqueued_total")),
		dropped:   o.Counter(label("netsim_dropped_total")),
		delivered: o.Counter(label("netsim_delivered_total")),
		sojourn:   o.Histogram(label("netsim_sojourn_seconds"), obs.DelayBuckets),
	}
}

func (lo *linkObs) onEnqueue(now time.Duration, p *Packet, qlen, qbytes int) {
	if lo == nil {
		return
	}
	lo.enqueued.Inc()
	lo.o.Emit(&obs.Event{At: now, Kind: obs.KindNetEnqueue, Flow: int32(p.Flow), Run: lo.run,
		V0: float64(p.Bytes), V1: float64(qlen), V2: float64(qbytes)})
}

func (lo *linkObs) onDrop(now time.Duration, p *Packet, cause string) {
	if lo == nil {
		return
	}
	lo.dropped.Inc()
	lo.o.Emit(&obs.Event{At: now, Kind: obs.KindNetDrop, Flow: int32(p.Flow), Run: lo.run,
		Str: cause, V0: float64(p.Bytes)})
}

func (lo *linkObs) onDeliver(now time.Duration, p *Packet) {
	if lo == nil {
		return
	}
	lo.delivered.Inc()
	soj := (now - p.SentAt).Seconds()
	lo.sojourn.Observe(soj)
	lo.o.Emit(&obs.Event{At: now, Kind: obs.KindNetDeliver, Flow: int32(p.Flow), Run: lo.run,
		V0: float64(p.Bytes), V1: soj})
}

// sinkObs is a flow sink's observability attachment: one net.attrib event
// per delivery carrying the packet's full delay decomposition, plus a
// per-component delay histogram family in the metrics registry. A nil
// *sinkObs is the disabled state, guarded at the call site like linkObs.
type sinkObs struct {
	o    *obs.Observer
	run  int64
	hist [stats.NumDelayComps]*obs.Histogram
}

// newSinkObs resolves the attribution instruments, labeled by run and
// component. Returns nil for a nil observer.
func newSinkObs(o *obs.Observer, run int64) *sinkObs {
	if o == nil {
		return nil
	}
	so := &sinkObs{o: o, run: run}
	runLabel := strconv.FormatInt(run, 10)
	for c := 0; c < stats.NumDelayComps; c++ {
		name := obs.Labeled("netsim_attrib_seconds", "comp", stats.DelayComp(c).String(), "run", runLabel)
		so.hist[c] = o.Histogram(name, obs.DelayBuckets)
	}
	return so
}

// onAttrib records one delivery's decomposition: the event's V0..V4 are the
// component durations in seconds (queue, ser, prop, fault, detour) and V5
// the measured one-way delay.
func (so *sinkObs) onAttrib(now time.Duration, p *Packet, comps [stats.NumDelayComps]time.Duration, oneWay time.Duration) {
	if so == nil {
		return
	}
	var secs [stats.NumDelayComps]float64
	for c := range secs {
		secs[c] = comps[c].Seconds()
		so.hist[c].Observe(secs[c])
	}
	so.o.Emit(&obs.Event{At: now, Kind: obs.KindNetAttrib, Flow: int32(p.Flow), Run: so.run,
		V0: secs[stats.DelayQueue],
		V1: secs[stats.DelaySerialize],
		V2: secs[stats.DelayPropagate],
		V3: secs[stats.DelayFaultHold],
		V4: secs[stats.DelayDetour],
		V5: oneWay.Seconds(),
	})
}
