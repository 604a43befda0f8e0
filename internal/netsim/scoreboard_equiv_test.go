package netsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// Old ≡ new for the sender's scoreboard. refSource is the sender as it stood
// before the ring: in-flight packets in a []refOutstanding sorted by seq,
// every ack a whole-window memmove and a whole-window loss scan. Its host
// duties below are that code verbatim; everything the change did not touch
// (clock, controller, RTT estimator, metrics) is the embedded Source's. The
// test feeds both senders the same acks and requires the same calls into the
// controller, argument for argument, and the same snapshot bytes.

type refOutstanding struct {
	seq        int64
	sentAt     time.Duration
	window     int
	ackedAfter int
}

type refSource struct {
	Source
	inflight []refOutstanding // shadows the embedded ring
}

func (s *refSource) trySend() {
	if s.stopped || !s.started {
		return
	}
	now := s.sim.Now()
	n := s.ctrl.Allowance(now, len(s.inflight))
	for i := 0; i < n; i++ {
		p := s.sim.NewPacket(s.flow, s.nextSeq, s.mtu, now, s.ctrl.SendTag())
		s.nextSeq++
		s.inflight = append(s.inflight, refOutstanding{seq: p.Seq, sentAt: now, window: p.Window})
		s.metrics.Sent++
		s.ctrl.OnSend(now, p.Seq, len(s.inflight))
		s.link.Send(p)
	}
}

func (s *refSource) onAck(p *Packet) {
	if s.stopped {
		return
	}
	now := s.sim.Now()
	idx := -1
	for i, o := range s.inflight {
		if o.seq == p.Seq {
			idx = i
			break
		}
		if o.seq > p.Seq {
			break
		}
	}
	if idx < 0 {
		return // already declared lost or duplicate ack
	}
	o := s.inflight[idx]
	s.inflight = append(s.inflight[:idx], s.inflight[idx+1:]...)
	rtt := now - o.sentAt
	s.updateRTT(rtt)
	s.lastProg = now
	s.backoff = 0

	s.ctrl.OnAck(now, cc.AckSample{
		Seq:        p.Seq,
		RTT:        rtt,
		SentWindow: o.window,
		Inflight:   len(s.inflight),
		Bytes:      p.Bytes,
	})

	s.detectLosses(now, p.Seq)
	s.trySend()
}

func (s *refSource) detectLosses(now time.Duration, ackedSeq int64) {
	timerCut := 3 * s.srtt
	kept := s.inflight[:0]
	for i := range s.inflight {
		o := &s.inflight[i]
		lost := false
		if o.seq < ackedSeq {
			o.ackedAfter++
			if o.ackedAfter >= dupThresh {
				lost = true
			}
		}
		if !lost && s.srtt > 0 && now-o.sentAt > timerCut && o.ackedAfter > 0 {
			lost = true
		}
		if lost {
			s.metrics.LossDetected++
			s.ctrl.OnLoss(now, cc.LossEvent{Seq: o.seq, SentWindow: o.window, Inflight: len(s.inflight) - 1})
			continue
		}
		kept = append(kept, *o)
	}
	s.inflight = kept
}

func (s *refSource) checkRTO() {
	if s.stopped || len(s.inflight) == 0 {
		return
	}
	now := s.sim.Now()
	if now-s.lastProg < s.rto() {
		return
	}
	s.metrics.Timeouts++
	s.inflight = s.inflight[:0]
	s.lastProg = now
	s.backoff++
	s.ctrl.OnTimeout(now)
	s.trySend()
}

func (s *refSource) Snapshot(e *snap.Encoder) {
	w := snap.Save(e)
	w.Tag("source")
	w.I64(&s.nextSeq)
	w.Len(len(s.inflight))
	for i := range s.inflight {
		o := &s.inflight[i]
		w.I64(&o.seq)
		w.Dur(&o.sentAt)
		w.Int(&o.window)
		w.Int(&o.ackedAfter)
	}
	w.Dur(&s.srtt)
	w.Dur(&s.rttvar)
	w.Dur(&s.lastProg)
	w.Int(&s.backoff)
	w.Bool(&s.stopped)
	w.Bool(&s.started)
	s.metrics.Walk(w)
	s.ctrl.(snap.Walkable).Walk(w)
}

// recCall is one call into the controller with every argument it carried.
type recCall struct {
	kind       byte
	now        time.Duration
	seq        int64
	rtt        time.Duration
	sentWindow int
	inflight   int
	bytes      int
}

// recCtrl is a fixed-window controller, the window set by the test, that
// records every call the sender makes.
type recCtrl struct {
	w     int
	calls []recCall
	peak  int
}

func (c *recCtrl) Name() string { return "rec" }
func (c *recCtrl) OnAck(now time.Duration, a cc.AckSample) {
	c.calls = append(c.calls, recCall{'a', now, a.Seq, a.RTT, a.SentWindow, a.Inflight, a.Bytes})
}
func (c *recCtrl) OnLoss(now time.Duration, l cc.LossEvent) {
	c.calls = append(c.calls, recCall{kind: 'l', now: now, seq: l.Seq, sentWindow: l.SentWindow, inflight: l.Inflight})
}
func (c *recCtrl) OnTimeout(now time.Duration) {
	c.calls = append(c.calls, recCall{kind: 't', now: now})
}
func (c *recCtrl) TickInterval() time.Duration { return 0 }
func (c *recCtrl) Tick(time.Duration)          {}
func (c *recCtrl) SendTag() int                { return c.w }
func (c *recCtrl) Walk(w snap.Walker)          { w.Int(&c.w) }
func (c *recCtrl) Allowance(now time.Duration, inflight int) int {
	c.calls = append(c.calls, recCall{kind: 'w', now: now, inflight: inflight})
	return c.w - inflight
}
func (c *recCtrl) OnSend(now time.Duration, seq int64, inflight int) {
	c.calls = append(c.calls, recCall{kind: 's', now: now, seq: seq, inflight: inflight})
	if inflight > c.peak {
		c.peak = inflight
	}
}

// sinkholeLink swallows what a sender transmits, noting the seqs: the test,
// not a network, decides which come back as acks and when.
type sinkholeLink struct {
	sim  *Sim
	sent []int64
}

func (l *sinkholeLink) Send(p *Packet) {
	l.sent = append(l.sent, p.Seq)
	l.sim.FreePacket(p)
}
func (l *sinkholeLink) Queue() Queue { return nil }

const scoreboardMTU = 1400

func sourceSnapshotBytes(t *testing.T, save func(*snap.Encoder)) []byte {
	t.Helper()
	e := snap.NewEncoder()
	save(e)
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runScoreboardTrial drives both senders with one seeded ack stream and
// returns how many acks it delivered.
func runScoreboardTrial(t *testing.T, seed int64, acks int) (delivered int, m *FlowMetrics, peak int) {
	rng := rand.New(rand.NewSource(seed))
	sim := NewSim()
	newCtrl, refCtrl := &recCtrl{w: 1}, &recCtrl{w: 1}
	newLink, refLink := &sinkholeLink{sim: sim}, &sinkholeLink{sim: sim}
	src := &Source{Host: Host{ctrl: newCtrl}, sim: sim, link: newLink, mtu: scoreboardMTU, metrics: newFlowMetrics(0), started: true}
	ref := &refSource{Source: Source{Host: Host{ctrl: refCtrl}, sim: sim, link: refLink, mtu: scoreboardMTU, metrics: newFlowMetrics(0), started: true}}

	step := 0
	compare := func(what string) {
		t.Helper()
		for i := 0; i < len(newCtrl.calls) && i < len(refCtrl.calls); i++ {
			if newCtrl.calls[i] != refCtrl.calls[i] {
				t.Fatalf("seed %d step %d (%s): controller call %d is %+v, reference %+v",
					seed, step, what, i, newCtrl.calls[i], refCtrl.calls[i])
			}
		}
		if len(newCtrl.calls) != len(refCtrl.calls) {
			t.Fatalf("seed %d step %d (%s): ring sender made %d controller calls, reference %d",
				seed, step, what, len(newCtrl.calls), len(refCtrl.calls))
		}
		newCtrl.calls, refCtrl.calls = newCtrl.calls[:0], refCtrl.calls[:0]
	}
	compareSnapshots := func() {
		t.Helper()
		if !bytes.Equal(sourceSnapshotBytes(t, func(e *snap.Encoder) { src.Walk(snap.Save(e)) }), sourceSnapshotBytes(t, ref.Snapshot)) {
			t.Fatalf("seed %d step %d: snapshot bytes differ from the reference sender's", seed, step)
		}
	}

	// advance moves the clock, polling the retransmission timeout every 10 ms
	// as the armed timer would.
	nextPoll := 10 * time.Millisecond
	advance := func(dt time.Duration) {
		target := sim.Now() + dt
		for nextPoll <= target {
			sim.Run(nextPoll)
			src.checkRTO()
			ref.checkRTO()
			compare("rto poll")
			nextPoll += 10 * time.Millisecond
		}
		sim.Run(target)
	}
	ack := func(seq int64) {
		p := Packet{Seq: seq, Bytes: scoreboardMTU}
		src.onAck(&p)
		ref.onAck(&p)
		compare("ack")
		delivered++
	}

	windows := []int{1, 2, 3, 4, 5, 8, 16, 64, 256, 1024, 4096, 8192}
	src.trySend()
	ref.trySend()
	compare("first window")
	// net is what the test's network holds: sent, not yet acked or dropped.
	// It keeps seqs the senders have since given up on (declared lost, or
	// cleared by a timeout), so their acks arrive late, as real ones do.
	var net []int64
	lastAcked := int64(-1)
	for delivered < acks {
		step++
		net = append(net, newLink.sent...)
		newLink.sent, refLink.sent = newLink.sent[:0], refLink.sent[:0]
		if step%400 == 0 {
			w := windows[rng.Intn(len(windows))]
			newCtrl.w, refCtrl.w = w, w
		}
		if step%500 == 0 {
			compareSnapshots()
		}
		switch r := rng.Intn(100); {
		case r < 70:
			advance(time.Duration(50+rng.Intn(450)) * time.Microsecond)
		case r < 90:
			advance(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		case r < 98:
			advance(time.Duration(20+rng.Intn(60)) * time.Millisecond) // long enough for the 3×SRTT timer
		default:
			advance(time.Duration(300+rng.Intn(1500)) * time.Millisecond) // a blackout: the RTO fires
		}
		if len(net) == 0 {
			advance(100 * time.Millisecond) // everything dropped: only the RTO restarts the flow
			continue
		}
		switch r := rng.Intn(100); {
		case r < 75: // in order
			lastAcked = net[0]
			net = net[1:]
			ack(lastAcked)
		case r < 85: // reordered: an ack overtakes up to seven older packets
			i := rng.Intn(min(len(net), 8))
			lastAcked = net[i]
			net = append(net[:i], net[i+1:]...)
			ack(lastAcked)
		case r < 93: // dropped: a hole (or a run of them) the later acks must detect
			net = net[min(len(net), 1+rng.Intn(5)):]
		case r < 97: // duplicated
			if lastAcked >= 0 {
				ack(lastAcked)
			}
		default: // stale: any seq ever sent, in flight or long given up on
			seq := rng.Int63n(src.nextSeq)
			for i, s := range net {
				if s == seq {
					net = append(net[:i], net[i+1:]...)
					break
				}
			}
			ack(seq)
		}
	}
	compareSnapshots()
	if !reflect.DeepEqual(src.metrics, ref.metrics) {
		t.Fatalf("seed %d: flow metrics differ\nring: %+v\nref:  %+v", seed, src.metrics, ref.metrics)
	}
	return delivered, src.metrics, newCtrl.peak
}

// TestScoreboardMatchesSliceReference is the old-vs-new equivalence over
// more than 10⁵ acks: in-order, reordered, duplicated and stale acks, holes
// that reach dupThresh, 3×SRTT timer losses, RTO clears and the acks that
// arrive after them, at windows from 1 to 8192.
func TestScoreboardMatchesSliceReference(t *testing.T) {
	total, peak := 0, 0
	var losses, timeouts int64
	for seed := int64(1); seed <= 4; seed++ {
		n, m, p := runScoreboardTrial(t, seed, 30_000)
		total += n
		losses += m.LossDetected
		timeouts += m.Timeouts
		peak = max(peak, p)
	}
	if total < 100_000 || losses == 0 || timeouts == 0 || peak < 8192 {
		t.Fatalf("trial too thin to mean anything: %d acks, %d losses, %d timeouts, peak window %d", total, losses, timeouts, peak)
	}
}

// TestSourceRestoreRejectsHostileSnapshot: the prefix scan is only correct on
// a scoreboard that keeps its invariants, so a snapshot that breaks one must
// fail the decoder and leave the sender as it was. The reference sender's
// slice-based Snapshot writes the wire layout from any in-flight list at all,
// which is what makes the hostile ones expressible.
func TestSourceRestoreRejectsHostileSnapshot(t *testing.T) {
	const nextSeq = 10
	decoder := func(e *snap.Encoder) *snap.Decoder {
		t.Helper()
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	encode := func(inflight []refOutstanding) *snap.Decoder {
		donor := &refSource{
			Source:   Source{Host: Host{ctrl: &recCtrl{w: 4}, nextSeq: nextSeq, srtt: 20 * time.Millisecond}, metrics: newFlowMetrics(0)},
			inflight: inflight,
		}
		e := snap.NewEncoder()
		donor.Snapshot(e)
		return decoder(e)
	}
	// target is a sender mid-flight, so an overwrite by a rejected snapshot shows.
	target := func() *Source {
		s := &Source{Host: Host{ctrl: &recCtrl{}, nextSeq: 77, srtt: time.Second}, sim: NewSim(), metrics: newFlowMetrics(0)}
		s.inflight.push(outstanding{seq: 70})
		return s
	}
	untouched := func(s *Source) bool {
		return s.nextSeq == 77 && s.srtt == time.Second && s.inflight.n == 1 && s.inflight.at(0).seq == 70
	}

	valid := []refOutstanding{{seq: 3, ackedAfter: 2}, {seq: 5, ackedAfter: 1}, {seq: 6}, {seq: 9}}
	s, d := target(), encode(valid)
	s.Walk(snap.Load(d))
	if err := d.Done(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if s.nextSeq != nextSeq || s.inflight.n != len(valid) || s.inflight.at(1).seq != 5 || s.inflight.at(1).ackedAfter != 1 {
		t.Fatalf("valid snapshot not applied: %+v", s.inflight)
	}
	if &s.inflight.buf[0] != &s.ring[0] {
		t.Errorf("a restored window of %d left the Source's own ring", s.inflight.n)
	}

	for name, inflight := range map[string][]refOutstanding{
		"descending seqs":                   {{seq: 5}, {seq: 3}},
		"repeated seq":                      {{seq: 5}, {seq: 5}},
		"seq at nextSeq":                    {{seq: 3}, {seq: nextSeq}},
		"negative seq":                      {{seq: -1}, {seq: 3}},
		"ackedAfter at dupThresh":           {{seq: 3, ackedAfter: dupThresh}},
		"negative ackedAfter":               {{seq: 3, ackedAfter: -1}},
		"acked past behind an unpassed one": {{seq: 3}, {seq: 5, ackedAfter: 1}},
	} {
		s, d := target(), encode(inflight)
		s.Walk(snap.Load(d))
		if d.Err() == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
		if !untouched(s) {
			t.Errorf("%s: rejected snapshot still overwrote the sender", name)
		}
	}

	// A length prefix far past the payload: the decoder runs dry after the one
	// entry present, and the ring never grew towards the claimed 2³¹.
	e := snap.NewEncoder()
	w := snap.Save(e)
	w.Tag("source")
	next, entry := int64(nextSeq), refOutstanding{seq: 3, window: 4}
	w.I64(&next)
	w.Len(1 << 31)
	w.I64(&entry.seq)
	w.Dur(&entry.sentAt)
	w.Int(&entry.window)
	w.Int(&entry.ackedAfter)
	s, d = target(), decoder(e)
	s.Walk(snap.Load(d))
	if d.Err() == nil {
		t.Error("oversized length prefix: snapshot accepted")
	}
	if !untouched(s) || len(s.inflight.buf) > 16 {
		t.Errorf("oversized length prefix: sender overwritten or ring grown to %d", len(s.inflight.buf))
	}
}
