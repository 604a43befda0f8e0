package faults

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a UDP relay that applies a fault Plan to real transport traffic.
// It sits between a transport.Sender and transport.Receiver:
//
//	sender --> proxy.Addr() --> forward (impaired) --> receiver
//	sender <-- reverse (outage/stall only) <--------- receiver
//
// The forward (data) direction carries the full plan — loss bursts,
// corruption, duplication, reordering, outages, stalls. The reverse (ack)
// direction honors only the timed events: a blackout or handover severs the
// bearer in both directions, but the stochastic air-interface impairments
// are modeled downlink-only to keep the two relay goroutines free of shared
// RNG state.
//
// Time is injected: now reports elapsed time on the same axis as the plan's
// event offsets. Timed windows are evaluated purely from now() — the proxy
// sets no timers of its own. The one consequence: packets frozen by a
// handover stall are flushed when the first datagram after the stall's end
// crosses the proxy, not at the exact end instant. Transports retransmit, so
// traffic always arrives to trigger the flush.
type Proxy struct {
	draws // rng and chain state: forward goroutine only; the plan is read-only
	now   func() time.Duration

	lc *net.UDPConn // client-facing socket
	sc *net.UDPConn // server-facing socket (connected)

	mu     sync.Mutex
	client *net.UDPAddr

	// Forward-goroutine state (unshared).
	reorderHold []byte
	fwdHeld     [][]byte
	// Reverse-goroutine state (unshared).
	revHeld [][]byte

	c       Counters // incremented atomically
	closeCh chan struct{}
	wg      sync.WaitGroup
}

// NewProxy starts a relay on an ephemeral localhost port that forwards to
// serverAddr through plan. now supplies elapsed time on the plan's axis
// (e.g. time.Since(start) closed over by the caller — the caller owns the
// wall clock; this package must stay off it).
func NewProxy(serverAddr string, plan *Plan, seed int64, now func() time.Duration) (*Proxy, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan == nil {
		plan = &Plan{}
	}
	sa, err := net.ResolveUDPAddr("udp", serverAddr)
	if err != nil {
		return nil, err
	}
	lc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	sc, err := net.DialUDP("udp", nil, sa)
	if err != nil {
		lc.Close()
		return nil, err
	}
	p := &Proxy{
		draws:   draws{plan: plan, rng: rand.New(rand.NewSource(seed))},
		now:     now,
		lc:      lc,
		sc:      sc,
		closeCh: make(chan struct{}),
	}
	p.wg.Add(2)
	go p.forward()
	go p.reverse()
	return p, nil
}

// Addr returns the address the sender should dial.
func (p *Proxy) Addr() string { return p.lc.LocalAddr().String() }

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Counters {
	var s Counters
	sf := s.fields()
	for i, c := range p.c.fields() {
		*sf[i] = atomic.LoadInt64(c)
	}
	return s
}

// Close stops both relay goroutines and releases the sockets.
func (p *Proxy) Close() error {
	select {
	case <-p.closeCh:
	default:
		close(p.closeCh)
	}
	err1 := p.lc.Close()
	err2 := p.sc.Close()
	p.wg.Wait()
	if err1 != nil {
		return err1
	}
	return err2
}

// activeEvent returns the timed event covering now, if any.
func (p *Proxy) activeEvent(now time.Duration) (Event, bool) {
	for _, ev := range p.plan.Events {
		if now < ev.At {
			break
		}
		if now < ev.At+ev.Dur {
			return ev, true
		}
	}
	return Event{}, false
}

// gate applies the timed-event policy shared by both directions to one
// datagram: drop during outages, buffer during stalls, and flush a stall
// buffer once its window has passed. It returns the datagrams to relay now
// (flushed ones first, in arrival order) and the updated hold buffer.
func (p *Proxy) gate(pkt []byte, held [][]byte) (out [][]byte, newHeld [][]byte) {
	now := p.now()
	ev, active := p.activeEvent(now)
	if active && ev.Kind == Outage {
		// The bearer is gone: the datagram and anything a stall was holding
		// are lost.
		if pkt != nil {
			atomic.AddInt64(&p.c.SendDropped, 1)
		}
		atomic.AddInt64(&p.c.Held, -int64(len(held)))
		atomic.AddInt64(&p.c.EgressDropped, int64(len(held)))
		return nil, held[:0]
	}
	if active && ev.Kind == Handover {
		if pkt != nil {
			cp := append([]byte(nil), pkt...)
			held = append(held, cp)
			atomic.AddInt64(&p.c.Held, 1)
		}
		return nil, held
	}
	// No active window: release any stall backlog ahead of the new arrival.
	if len(held) > 0 {
		atomic.AddInt64(&p.c.Held, -int64(len(held)))
		atomic.AddInt64(&p.c.Released, int64(len(held)))
		out = append(out, held...)
		held = held[:0]
	}
	if pkt != nil {
		out = append(out, pkt)
	}
	return out, held
}

func (p *Proxy) forward() {
	defer p.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, err := p.lc.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.client = addr
		p.mu.Unlock()
		var out [][]byte
		out, p.fwdHeld = p.gate(buf[:n], p.fwdHeld)
		for _, pkt := range out {
			p.impair(pkt)
		}
	}
}

// impair runs one forward datagram through the stochastic processes and
// writes the survivors to the server socket.
func (p *Proxy) impair(pkt []byte) {
	if p.lost() {
		atomic.AddInt64(&p.c.BurstLost, 1)
		return
	}
	if p.hit(p.plan.CorruptProb) {
		// Mangle the header type byte; the receiver's ParseHeader rejects
		// the datagram, which is how corruption surfaces to a real stack.
		atomic.AddInt64(&p.c.Corrupted, 1)
		if len(pkt) > 0 {
			pkt[0] ^= 0x7f
		}
		p.send(pkt)
		return
	}
	if p.hit(p.plan.ReorderProb) && p.reorderHold == nil {
		// Bounded reordering: hold exactly one datagram; it departs right
		// after the next one, i.e. displaced by a single packet.
		atomic.AddInt64(&p.c.Reordered, 1)
		atomic.AddInt64(&p.c.ReorderPending, 1)
		p.reorderHold = append([]byte(nil), pkt...)
		return
	}
	p.send(pkt)
	if p.reorderHold != nil {
		held := p.reorderHold
		p.reorderHold = nil
		atomic.AddInt64(&p.c.ReorderPending, -1)
		p.send(held)
	}
	if p.hit(p.plan.DupProb) {
		atomic.AddInt64(&p.c.Duplicated, 1)
		p.send(pkt)
	}
}

func (p *Proxy) send(pkt []byte) {
	atomic.AddInt64(&p.c.Delivered, 1)
	p.sc.Write(pkt)
}

func (p *Proxy) reverse() {
	defer p.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, err := p.sc.Read(buf)
		if err != nil {
			return
		}
		var out [][]byte
		out, p.revHeld = p.gate(buf[:n], p.revHeld)
		p.mu.Lock()
		client := p.client
		p.mu.Unlock()
		if client == nil {
			continue
		}
		for _, pkt := range out {
			p.lc.WriteToUDP(pkt, client)
		}
	}
}
