package obs

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"
)

// The per-event costs, same-binary so code-layout variance cancels: the
// disabled path (nil observer) is the cost every instrumentation point pays
// in an unobserved run; the shared enabled path is a mutex, one copy of the
// event into its ring slot and a cursor increment; a Local's is a copy into
// its batch, with the lock and the copy into the ring once per batch. The exporters are timed over a
// trace of the shape a traced fault trial leaves in the ring.

func benchEvent() Event {
	return Event{At: 125 * time.Millisecond, Kind: KindVerusEpoch, Flow: 3, Run: 42,
		V0: 0.081, V1: 0.064, V2: 31.5, V3: 12}
}

// cityLossShapedEvents returns n events in the mix experiments'
// cityLossTrial leaves behind: per packet an enqueue, a deliver and a
// six-slot attribution whose values are nanosecond-grained seconds; now and
// then a drop, a Verus epoch, and a handover window.
func cityLossShapedEvents(n int) []Event {
	rng := rand.New(rand.NewSource(13))
	out := make([]Event, 0, n+4)
	const run = -2380643066972918673
	var at time.Duration
	for pkt := 0; len(out) < n; pkt++ {
		at += time.Duration(200_000 + rng.Intn(600_000))
		flow := int32(pkt % 4)
		qlen := 1 + rng.Intn(90)
		queue := time.Duration(qlen) * 560_000
		ser := time.Duration(rng.Intn(14_000_000))
		const prop = 10 * time.Millisecond
		out = append(out,
			Event{At: at, Kind: KindNetEnqueue, Flow: flow, Run: run, V0: 1400, V1: float64(qlen), V2: float64(qlen * 1400)},
			Event{At: at + queue + ser, Kind: KindNetDeliver, Flow: flow, Run: run, V0: 1400, V1: (queue + ser).Seconds()},
			Event{At: at + queue + ser + prop, Kind: KindNetAttrib, Flow: flow, Run: run,
				V0: queue.Seconds(), V1: ser.Seconds(), V2: prop.Seconds(), V5: (queue + ser + prop).Seconds()})
		switch {
		case pkt%97 == 96:
			out = append(out, Event{At: at, Kind: KindNetDrop, Flow: flow, Run: run, Str: "loss", V0: 1400})
		case pkt%64 == 63:
			out = append(out, Event{At: at, Kind: KindVerusEpoch, Flow: flow, Run: run,
				V0: queue.Seconds(), V1: (queue + prop).Seconds(), V2: float64(qlen), V3: float64(rng.Intn(12))})
		case pkt%5000 == 2500:
			out = append(out, Event{At: at, Kind: KindFaultBegin, Flow: -1, Run: run, Str: "handover", V0: 0.25})
		case pkt%5000 == 3000:
			out = append(out, Event{At: at, Kind: KindFaultEnd, Flow: -1, Run: run, Str: "handover", V0: 61})
		}
	}
	out = out[:n]
	for i := range out {
		out[i].Seq = 1746552 + uint64(i)
	}
	return out
}

func BenchmarkEmitDisabled(b *testing.B) {
	var o *Observer
	e := benchEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(&e)
	}
}

// The 4096-slot ring (420 KB) stays in cache; the 64Ki-slot one is the size
// runs use, and pays the store misses they pay.
func BenchmarkEmitEnabled(b *testing.B) {
	for _, ring := range []struct {
		name  string
		slots int
	}{{"ring4k", 1 << 12}, {"ring64k", 1 << 16}} {
		b.Run(ring.name, func(b *testing.B) {
			o := NewObserver(NewTracer(ring.slots), nil)
			e := benchEvent()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Emit(&e)
			}
		})
	}
}

// BenchmarkLocalEmit is BenchmarkEmitEnabled through a Local: a copy into
// the batch per event, and one lock and one copy into the ring per batch.
func BenchmarkLocalEmit(b *testing.B) {
	for _, ring := range []struct {
		name  string
		slots int
	}{{"ring4k", 1 << 12}, {"ring64k", 1 << 16}} {
		b.Run(ring.name, func(b *testing.B) {
			l := NewObserver(NewTracer(ring.slots), nil).Local()
			e := benchEvent()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Emit(&e)
			}
			l.Flush()
		})
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// benchDelays is a delay per bucket a cellular run fills: 1 ms to 1 s.
func benchDelays() *[1024]float64 {
	var delays [1024]float64
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = 0.001 * float64(uint(1)<<rng.Intn(11)) * (0.5 + rng.Float64()/2)
	}
	return &delays
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DelayBuckets)
	delays := benchDelays()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(delays[i%len(delays)])
	}
}

// BenchmarkLocalObserve is BenchmarkHistogramObserve on a Local's shadow:
// the same scan, then plain integer adds.
func BenchmarkLocalObserve(b *testing.B) {
	l := NewObserver(nil, NewRegistry()).Local()
	h := l.Histogram("delay_seconds", DelayBuckets)
	delays := benchDelays()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(delays[i%len(delays)])
	}
	l.Flush()
}

func benchExport(b *testing.B, write func(io.Writer, []Event) error) {
	events := cityLossShapedEvents(1 << 16)
	var size bytes.Buffer
	if err := write(&size, events); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONL(b *testing.B)       { benchExport(b, WriteJSONL) }
func BenchmarkWriteChromeTrace(b *testing.B) { benchExport(b, WriteChromeTrace) }

func BenchmarkReadJSONL(b *testing.B) {
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, cityLossShapedEvents(1<<16)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(jsonl.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
