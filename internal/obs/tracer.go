package obs

import "sync"

// DefaultTraceCapacity is the ring size NewTracer uses for capacity <= 0:
// 64Ki events ≈ 6 MB, a few simulated minutes of epoch-rate traffic.
const DefaultTraceCapacity = 1 << 16

// Tracer is a bounded, ring-buffered event recorder. Emission overwrites
// the oldest events once the ring is full, so a tracer can stay attached to
// an arbitrarily long run with fixed memory; Dropped reports how many
// events the ring no longer holds.
//
// The ring is a flat []Event slab allocated once at construction: emitting
// into it is a mutex acquire, one struct copy into the slot and a cursor
// increment, with no steady-state allocation; a Local's batch takes the lock
// once for all its events. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event // the slots written so far; cap(buf) == limit
	limit   int
	next    int // the slot the next event takes; wraps at limit
	emitted uint64
}

// NewTracer returns a tracer holding the last `capacity` events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity), limit: capacity}
}

// Emit records e, stamping its Seq with the emission sequence number. Safe
// for concurrent use; a nil tracer discards the event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.emit(&e)
}

// emit copies *e into the next slot and stamps the slot's Seq. It does not
// keep e, so a caller's literal can stay on its stack.
func (t *Tracer) emit(e *Event) {
	t.mu.Lock()
	if len(t.buf) < t.limit {
		t.buf = t.buf[:len(t.buf)+1] // still filling: next == the old len
	}
	slot := &t.buf[t.next]
	*slot = *e
	slot.Seq = t.emitted
	t.emitted++
	if t.next++; t.next == t.limit {
		t.next = 0
	}
	t.mu.Unlock()
}

// publish copies batch into the ring in order under one lock, with each
// event's Seq stamped as emit would have, first in batch itself. It does not
// keep batch.
func (t *Tracer) publish(batch []Event) {
	t.mu.Lock()
	for len(batch) > 0 {
		if len(t.buf) < t.limit { // still filling: next == the old len
			t.buf = t.buf[:min(t.limit, len(t.buf)+len(batch))]
		}
		n := min(len(batch), len(t.buf)-t.next)
		for i := range batch[:n] {
			batch[i].Seq = t.emitted + uint64(i)
		}
		copy(t.buf[t.next:], batch[:n])
		t.emitted += uint64(n)
		batch = batch[n:]
		if t.next += n; t.next == t.limit {
			t.next = 0
		}
	}
	t.mu.Unlock()
}

// Snapshot returns the retained events, oldest first, as a fresh slice.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if len(t.buf) < t.limit {
		copy(out, t.buf)
		return out
	}
	n := copy(out, t.buf[t.next:])
	copy(out[n:], t.buf[:t.next])
	return out
}

// Emitted returns the total number of events ever emitted.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Dropped returns how many emitted events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted - uint64(len(t.buf))
}
