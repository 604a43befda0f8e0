package tcp

import (
	"bytes"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/snap"
)

// model is a TCP controller as these tests drive and inspect it.
type model interface {
	cc.Controller
	snap.Walkable
}

// saveModel returns m's checkpoint bytes.
func saveModel(t *testing.T, m model) []byte {
	t.Helper()
	e := snap.NewEncoder()
	m.Walk(snap.Save(e))
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// slabCase pairs a model's element i of a slab of three with a controller
// from its New, and reads either side's window.
type slabCase struct {
	name   string
	slab   func(i int) model
	single func() model
	cwnd   func(model) float64
}

func slabCases() []slabCase {
	cubics, renos, vegases := NewCubics(3), NewNewRenos(3), NewVegases(3)
	return []slabCase{
		{"cubic", func(i int) model { return &cubics[i] }, func() model { return NewCubic() }, func(m model) float64 { return m.(*Cubic).cwnd }},
		{"newreno", func(i int) model { return &renos[i] }, func() model { return NewNewReno() }, func(m model) float64 { return m.(*NewReno).cwnd }},
		{"vegas", func(i int) model { return &vegases[i] }, func() model { return NewVegas() }, func(m model) float64 { return m.(*Vegas).cwnd }},
	}
}

// TestSlabMatchesNew drives element i of each model's slab and a controller
// from its New through one seeded script of sends, acks that skip sequence
// numbers under jittered RTTs, losses and timeouts, and requires the same
// allowance, send tag and window after every event and the same checkpoint
// bytes at the end.
func TestSlabMatchesNew(t *testing.T) {
	for _, c := range slabCases() {
		for i := 0; i < 3; i++ {
			a, b := c.slab(i), c.single()
			rng := rand.New(rand.NewSource(int64(i) + 1))
			var now time.Duration
			seq, acked := int64(0), int64(-1)
			for step := 0; step < 20_000; step++ {
				now += time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
				inflight := int(seq - 1 - acked)
				switch r := rng.Intn(1000); {
				case r < 450:
					if a.Allowance(now, inflight) > 0 {
						a.OnSend(now, seq, 1400)
						b.OnSend(now, seq, 1400)
						seq++
					}
				case r < 900:
					if acked >= seq-1 {
						break
					}
					acked = min(acked+1+rng.Int63n(3), seq-1)
					rtt := 30*time.Millisecond + time.Duration(rng.Int63n(int64(60*time.Millisecond)))
					ack := cc.AckSample{Seq: acked, RTT: rtt, SentWindow: a.SendTag(), Inflight: int(seq - 1 - acked), Bytes: 1400}
					a.OnAck(now, ack)
					b.OnAck(now, ack)
				case r < 985:
					loss := cc.LossEvent{Seq: acked, SentWindow: a.SendTag(), Inflight: inflight}
					a.OnLoss(now, loss)
					b.OnLoss(now, loss)
				default:
					a.OnTimeout(now)
					b.OnTimeout(now)
				}
				inflight = int(seq - 1 - acked)
				if a.Allowance(now, inflight) != b.Allowance(now, inflight) || a.SendTag() != b.SendTag() || c.cwnd(a) != c.cwnd(b) {
					t.Fatalf("%s element %d, step %d: allowance %d/%d, send tag %d/%d, cwnd %v/%v (slab/New)", c.name, i, step,
						a.Allowance(now, inflight), b.Allowance(now, inflight), a.SendTag(), b.SendTag(), c.cwnd(a), c.cwnd(b))
				}
			}
			if seq < 1000 {
				t.Fatalf("%s element %d: script too weak, %d sends", c.name, i, seq)
			}
			if !bytes.Equal(saveModel(t, a), saveModel(t, b)) {
				t.Errorf("%s element %d: checkpoint bytes differ from New's", c.name, i)
			}
		}
	}
}

// TestSlabAllocs pins what construction allocates: each model's slab
// constructor builds a thousand controllers in one allocation, and its New, a
// slab of one, still allocates once.
func TestSlabAllocs(t *testing.T) {
	for _, c := range []struct {
		name         string
		slab, single func()
	}{
		{"cubic", func() { NewCubics(1000) }, func() { NewCubic() }},
		{"newreno", func() { NewNewRenos(1000) }, func() { NewNewReno() }},
		{"vegas", func() { NewVegases(1000) }, func() { NewVegas() }},
	} {
		if a := allocsPerRun(10, c.slab); a > 1 {
			t.Errorf("%s: a slab of 1000: %v allocs, want at most 1", c.name, a)
		}
		if a := allocsPerRun(10, c.single); a != 1 {
			t.Errorf("%s: New: %v allocs, want 1", c.name, a)
		}
	}
}

// TestTCPRestoreRejectsHostileSnapshot: a snapshot holding a window, ssthresh,
// sequence, duration or count that no run of the model reaches must fail the
// decoder and leave the controller as it was, and a reachable one must load.
func TestTCPRestoreRejectsHostileSnapshot(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	hostile := []struct {
		name   string
		mutate func(m model)
	}{
		{"cubic cwnd NaN", func(m model) { m.(*Cubic).cwnd = nan }},
		{"cubic cwnd +Inf", func(m model) { m.(*Cubic).cwnd = inf }},
		{"cubic cwnd -5", func(m model) { m.(*Cubic).cwnd = -5 }},
		{"cubic cwnd 0.5", func(m model) { m.(*Cubic).cwnd = 0.5 }},
		{"cubic ssthresh NaN", func(m model) { m.(*Cubic).ssthresh = nan }},
		{"cubic ssthresh 1", func(m model) { m.(*Cubic).ssthresh = 1 }},
		{"cubic lastSent -1", func(m model) { m.(*Cubic).lastSent = -1 }},
		{"cubic recoverSeq -2", func(m model) { m.(*Cubic).recoverSeq = -2 }},
		{"cubic wMax NaN", func(m model) { m.(*Cubic).wMax = nan }},
		{"cubic k -1", func(m model) { m.(*Cubic).k = -1 }},
		{"cubic negative srtt", func(m model) { m.(*Cubic).srtt = -time.Millisecond }},
		{"cubic negative epochStart", func(m model) { m.(*Cubic).epochStart = -time.Millisecond }},
		{"newreno cwnd NaN", func(m model) { m.(*NewReno).cwnd = nan }},
		{"newreno cwnd 0", func(m model) { m.(*NewReno).cwnd = 0 }},
		{"newreno ssthresh -Inf", func(m model) { m.(*NewReno).ssthresh = math.Inf(-1) }},
		{"newreno ssthresh +Inf", func(m model) { m.(*NewReno).ssthresh = inf }},
		{"newreno recoverSeq -7", func(m model) { m.(*NewReno).recoverSeq = -7 }},
		{"vegas cwnd 1", func(m model) { m.(*Vegas).cwnd = 1 }},
		{"vegas cwnd NaN", func(m model) { m.(*Vegas).cwnd = nan }},
		{"vegas ssthresh 0", func(m model) { m.(*Vegas).ssthresh = 0 }},
		{"vegas negative baseRTT", func(m model) { m.(*Vegas).baseRTT = -time.Millisecond }},
		{"vegas negative rttSum", func(m model) { m.(*Vegas).rttSum, m.(*Vegas).rttCnt = -time.Millisecond, 1 }},
		{"vegas negative rttCnt", func(m model) { m.(*Vegas).rttCnt = -1 }},
		{"vegas rtt sum without count", func(m model) { m.(*Vegas).rttSum, m.(*Vegas).rttCnt = time.Millisecond, 0 }},
	}
	fresh := map[string]func() model{
		"cubic":   func() model { return NewCubic() },
		"newreno": func() model { return NewNewReno() },
		"vegas":   func() model { return NewVegas() },
	}
	encode := func(m model) *snap.Decoder {
		d, err := snap.Decode(saveModel(t, m), snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, mk := range fresh {
		donor := mk()
		donor.OnSend(0, 0, 1400)
		donor.OnAck(time.Millisecond, cc.AckSample{Seq: 0, RTT: 40 * time.Millisecond, SentWindow: 2})
		m := mk()
		d := encode(donor)
		m.Walk(snap.Load(d))
		if err := d.Done(); err != nil {
			t.Fatalf("%s: valid snapshot rejected: %v", name, err)
		}
		if !bytes.Equal(saveModel(t, m), saveModel(t, donor)) {
			t.Fatalf("%s: valid snapshot not applied", name)
		}
	}
	for _, h := range hostile {
		kind, _, _ := strings.Cut(h.name, " ")
		src := fresh[kind]()
		h.mutate(src)
		dst := fresh[kind]()
		want := saveModel(t, dst)
		d := encode(src)
		dst.Walk(snap.Load(d))
		if d.Err() == nil {
			t.Errorf("%s: snapshot accepted", h.name)
		} else if !strings.Contains(d.Err().Error(), kind) {
			t.Errorf("%s: error %q does not name the model", h.name, d.Err())
		}
		if !bytes.Equal(saveModel(t, dst), want) {
			t.Errorf("%s: rejected snapshot still overwrote the controller", h.name)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off: under the race
// detector a collection that falls inside the count allocates too.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
