package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/snap"
	"repro/internal/stats"
)

// Packet is the unit of transfer in the simulator. Packets are pooled: sim
// code obtains them from Sim.NewPacket/ClonePacket and returns them with
// Sim.FreePacket when their life ends (see pool.go for the ownership rules).
type Packet struct {
	poolMeta
	// Flow identifies the sending flow.
	Flow int
	// Seq is the flow-local sequence number.
	Seq int64
	// Bytes is the packet size on the wire.
	Bytes int
	// SentAt is when the source transmitted the packet.
	SentAt time.Duration
	// Window is the controller's SendTag at transmission time (Verus W_i).
	Window int

	// Delay attribution (DESIGN.md §11): the lifecycle stamps ride inside the
	// pooled packet so the decomposition costs no allocation. comps accumulate
	// closed intervals per component; mark is the open interval's start and
	// pend the component it will be charged to. NewPacket opens the first
	// interval at SentAt charged to queue wait; every transition closes the
	// open interval via MarkDelay; the sink closes the last one. Because each
	// charge is now-mark in integer nanoseconds and the marks are contiguous,
	// the component sum telescopes exactly to the measured one-way delay.
	comps [stats.NumDelayComps]time.Duration
	mark  time.Duration
	pend  stats.DelayComp
}

// MarkDelay closes the packet's open attribution interval at now — charging
// now-mark to the pending component — and opens a new interval charged to
// next. Stamp points call it at component transitions; it is pure integer
// arithmetic with no observability dependency, so it runs unconditionally.
func (p *Packet) MarkDelay(now time.Duration, next stats.DelayComp) {
	p.comps[p.pend] += now - p.mark
	p.mark = now
	p.pend = next
}

// CloseDelay closes the open interval at delivery time without opening a new
// one; after it, DelayComps sums exactly to now-SentAt.
func (p *Packet) CloseDelay(now time.Duration) {
	p.comps[p.pend] += now - p.mark
	p.mark = now
}

// DelayComps returns the accumulated per-component durations.
func (p *Packet) DelayComps() [stats.NumDelayComps]time.Duration { return p.comps }

// resetAttrib opens the first attribution interval: queue wait from sentAt.
func (p *Packet) resetAttrib(sentAt time.Duration) {
	p.comps = [stats.NumDelayComps]time.Duration{}
	p.mark = sentAt
	p.pend = stats.DelayQueue
}

// Queue is a bottleneck buffer. Enqueue returns false when the packet is
// dropped (tail drop or AQM decision); the caller keeps ownership of a
// rejected packet (and typically releases it).
type Queue interface {
	Enqueue(p *Packet, now time.Duration) bool
	Dequeue(now time.Duration) *Packet
	// Peek returns the head-of-line packet without dequeuing it (nil when
	// empty).
	Peek() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() int
}

// pktRing is a FIFO of packets over a power-of-two circular buffer. The old
// `fifo = fifo[1:]` reslicing walked the backing array forward so append had
// to reallocate perpetually even at a constant queue depth; the ring reuses
// its slots, which is what lets a saturated bottleneck run allocation-free.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) grow() {
	nc := len(r.buf) * 2
	if nc == 0 {
		nc = 16
	}
	nb := make([]*Packet, nc)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

func (r *pktRing) pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

func (r *pktRing) peek() *Packet {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// DropTail is a FIFO with a byte capacity.
type DropTail struct {
	limit int
	ring  pktRing
	bytes int
	// Drops counts enqueue rejections.
	Drops int
}

// NewDropTail returns a FIFO that holds at most limitBytes.
func NewDropTail(limitBytes int) *DropTail {
	if limitBytes <= 0 {
		panic("netsim: DropTail limit must be positive")
	}
	return &DropTail{limit: limitBytes}
}

// Enqueue implements Queue.
func (q *DropTail) Enqueue(p *Packet, _ time.Duration) bool {
	AssertLive(p, "DropTail.Enqueue")
	if q.bytes+p.Bytes > q.limit {
		q.Drops++
		return false
	}
	q.ring.push(p)
	q.bytes += p.Bytes
	return true
}

// Dequeue implements Queue.
func (q *DropTail) Dequeue(_ time.Duration) *Packet {
	p := q.ring.pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.Bytes
	return p
}

// Peek implements Queue.
func (q *DropTail) Peek() *Packet { return q.ring.peek() }

// Len implements Queue.
func (q *DropTail) Len() int { return q.ring.n }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// RED is Random Early Detection queue management (Floyd & Jacobson 1993),
// the discipline the paper's OPNET traffic shaper uses: "a shared queue with
// Random Early Detection (RED) ... minimum queue size 3 MBit, maximum queue
// size 9 MBit, and drop probability 10%."
type RED struct {
	// MinBytes and MaxBytes are the average-queue thresholds.
	MinBytes, MaxBytes int
	// MaxP is the drop probability as the average approaches MaxBytes.
	MaxP float64
	// Wq is the EWMA weight for the average queue estimate.
	Wq float64
	// HardLimitBytes caps the instantaneous queue (tail drop beyond it).
	HardLimitBytes int

	rng *rand.Rand
	// src is the counting source behind rng, making the drop-draw stream
	// position checkpointable (see snapshot.go).
	src    *snap.Source
	ring   pktRing
	bytes  int
	avg    float64
	count  int // packets since last drop, for uniformized drop spacing
	idleAt time.Duration
	idle   bool
	// Drops counts all dropped packets (early + tail).
	Drops int
	// EarlyDrops counts probabilistic RED drops only.
	EarlyDrops int
}

// PaperRED returns a RED queue with the paper's OPNET parameters: 3 Mbit
// min, 9 Mbit max, 10% drop probability. The hard limit is twice the max
// threshold.
func PaperRED(seed int64) *RED {
	return NewRED(3_000_000/8, 9_000_000/8, 0.10, seed)
}

// NewRED returns a RED queue with the given thresholds (bytes) and max drop
// probability. Wq defaults to 0.002 (the classic recommendation); the hard
// limit defaults to 2×maxBytes.
func NewRED(minBytes, maxBytes int, maxP float64, seed int64) *RED {
	if minBytes <= 0 || maxBytes <= minBytes || maxP <= 0 || maxP > 1 {
		panic("netsim: invalid RED parameters")
	}
	src := snap.NewSource(seed)
	return &RED{
		MinBytes:       minBytes,
		MaxBytes:       maxBytes,
		MaxP:           maxP,
		Wq:             0.002,
		HardLimitBytes: 2 * maxBytes,
		rng:            rand.New(src),
		src:            src,
		idle:           true,
	}
}

// Enqueue implements Queue.
func (q *RED) Enqueue(p *Packet, now time.Duration) bool {
	AssertLive(p, "RED.Enqueue")
	// Update the average queue size. After an idle period the average decays
	// as if small packets had been draining (approximation: decay toward 0
	// with the idle time measured in packet transmission slots). The idle
	// state must persist across *rejected* enqueues — clearing it on a drop
	// would freeze the average near its peak and blackhole the queue until
	// enough doomed arrivals nudge it down.
	if q.idle {
		slots := float64(now-q.idleAt) / float64(time.Millisecond)
		if slots > 0 {
			q.avg *= math.Pow(1-q.Wq, slots)
		}
		q.idleAt = now // decay accounted up to now; stay idle until a packet lands
	}
	q.avg = q.avg + q.Wq*(float64(q.bytes)-q.avg)

	if q.bytes+p.Bytes > q.HardLimitBytes {
		q.Drops++
		q.count = 0
		return false
	}
	switch {
	case q.avg < float64(q.MinBytes):
		q.count = -1
	case q.avg >= float64(q.MaxBytes):
		q.Drops++
		q.EarlyDrops++
		q.count = 0
		return false
	default:
		q.count++
		pb := q.MaxP * (q.avg - float64(q.MinBytes)) / float64(q.MaxBytes-q.MinBytes)
		pa := pb / (1 - float64(q.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		if q.rng.Float64() < pa {
			q.Drops++
			q.EarlyDrops++
			q.count = 0
			return false
		}
	}
	q.ring.push(p)
	q.bytes += p.Bytes
	q.idle = false
	return true
}

// Dequeue implements Queue.
func (q *RED) Dequeue(now time.Duration) *Packet {
	p := q.ring.pop()
	if p == nil {
		return nil
	}
	q.bytes -= p.Bytes
	if q.ring.n == 0 {
		q.idle = true
		q.idleAt = now
	}
	return p
}

// Peek implements Queue.
func (q *RED) Peek() *Packet { return q.ring.peek() }

// Len implements Queue.
func (q *RED) Len() int { return q.ring.n }

// Bytes implements Queue.
func (q *RED) Bytes() int { return q.bytes }

// walk visits the ring's packets in FIFO order. A load rematerializes them
// into a ring the rebuild left empty and returns their total size.
func (r *pktRing) walk(w snap.Walker) (bytes int) {
	if w.Loading() && r.n != 0 {
		w.Fail(fmt.Errorf("netsim: restoring a queue ring that already holds %d packets", r.n))
		return 0
	}
	n := w.Len(r.n)
	for i := 0; i < n && w.Err() == nil; i++ {
		var p *Packet
		if !w.Loading() {
			p = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		if WalkListedPacket(w, &p) {
			r.push(p)
			bytes += p.Bytes
		}
	}
	return bytes
}

// Walk implements snap.Walkable: the queued packets and drop counter. The
// byte limit is configuration.
func (q *DropTail) Walk(w snap.Walker) {
	w.Tag("droptail")
	w.SameInt(q.limit, "netsim: DropTail limit")
	w.Int(&q.Drops)
	if bytes := q.ring.walk(w); w.Loading() {
		q.bytes = bytes
	}
}

// Walk implements snap.Walkable: queued packets, the RNG stream position, and
// every piece of RED's drop-decision state (average, count, idle clock).
// Thresholds are configuration.
func (q *RED) Walk(w snap.Walker) {
	w.Tag("red")
	if q.src == nil {
		w.Fail(fmt.Errorf("netsim: RED queue was not built with NewRED and has no checkpointable RNG"))
		return
	}
	w.SameInt(q.MinBytes, "netsim: RED MinBytes")
	w.SameInt(q.MaxBytes, "netsim: RED MaxBytes")
	w.SameF64(q.MaxP, "netsim: RED MaxP")
	w.SameF64(q.Wq, "netsim: RED Wq")
	w.SameInt(q.HardLimitBytes, "netsim: RED HardLimitBytes")
	q.src.Walk(w)
	w.F64(&q.avg)
	w.Int(&q.count)
	w.Dur(&q.idleAt)
	w.Bool(&q.idle)
	w.Int(&q.Drops)
	w.Int(&q.EarlyDrops)
	if bytes := q.ring.walk(w); w.Loading() {
		q.bytes = bytes
	}
}

// walkQueue dispatches a Queue's walk through its concrete type. The kind
// byte on the wire must name the type the rebuild produced.
func walkQueue(w snap.Walker, q Queue) {
	var kind uint8
	switch q.(type) {
	case *DropTail:
		kind = 0
	case *RED:
		kind = 1
	default:
		w.Fail(fmt.Errorf("netsim: queue type %T is not checkpointable", q))
		return
	}
	got := kind
	if w.U8(&got); w.Err() == nil && got != kind {
		w.Fail(fmt.Errorf("netsim: snapshot queue kind %d, rebuilt a %T", got, q))
		return
	}
	q.(snap.Walkable).Walk(w)
}
