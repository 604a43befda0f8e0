package sprout

import (
	"fmt"
	"math"

	"repro/internal/snap"
)

// Snapshot implements snap.Snapshotter: the belief distribution and the
// tick-accumulator state. Derived quantities (the config's tables, the scratch
// buffers, the look-ahead) are functions of the config and the belief and are
// rebuilt.
func (s *Sprout) Snapshot(e *snap.Encoder) {
	e.Tag("sprout")
	e.F64s(s.belief)
	e.Int(s.arrivals)
	e.Int(s.window)
	e.Dur(s.rttMin)
	e.Dur(s.rttSumTick)
	e.Int(s.rttCntTick)
	e.Dur(s.srtt)
	e.I64(s.ticks)
}

// Restore implements snap.Snapshotter, cross-checking the belief resolution
// against the rebuilt configuration. It fails closed: a belief that is not a
// probability distribution, a window below the probing minimum, a negative
// count or duration, or an RTT sum over no samples is a state no run of this
// controller can reach, and is rejected before any field is overwritten.
func (s *Sprout) Restore(d *snap.Decoder) {
	d.Expect("sprout")
	belief := d.F64s()
	arrivals := d.Int()
	window := d.Int()
	rttMin := d.Dur()
	rttSumTick := d.Dur()
	rttCntTick := d.Int()
	srtt := d.Dur()
	ticks := d.I64()
	if d.Err() != nil {
		return
	}
	if len(belief) != len(s.belief) {
		d.Fail(fmt.Errorf("sprout: snapshot has %d belief bins, rebuild configured %d", len(belief), len(s.belief)))
		return
	}
	var total float64
	for i, p := range belief {
		if !(p >= 0) || math.IsInf(p, 1) {
			d.Fail(fmt.Errorf("sprout: snapshot belief bin %d is %v, not a probability", i, p))
			return
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		d.Fail(fmt.Errorf("sprout: snapshot belief sums to %v, not 1", total))
		return
	}
	if window < 1 {
		d.Fail(fmt.Errorf("sprout: snapshot window %d is below the probing minimum 1", window))
		return
	}
	if arrivals < 0 || rttCntTick < 0 || ticks < 0 {
		d.Fail(fmt.Errorf("sprout: snapshot counts arrivals %d, rtt samples %d, ticks %d; none may be negative", arrivals, rttCntTick, ticks))
		return
	}
	if rttMin < 0 || rttSumTick < 0 || srtt < 0 {
		d.Fail(fmt.Errorf("sprout: snapshot durations rttMin %v, rttSumTick %v, srtt %v; none may be negative", rttMin, rttSumTick, srtt))
		return
	}
	if rttCntTick == 0 && rttSumTick != 0 {
		d.Fail(fmt.Errorf("sprout: snapshot sums %v of RTT over no samples", rttSumTick))
		return
	}
	copy(s.belief, belief)
	s.aheadOK = false
	s.arrivals = arrivals
	s.window = window
	s.rttMin = rttMin
	s.rttSumTick = rttSumTick
	s.rttCntTick = rttCntTick
	s.srtt = srtt
	s.ticks = ticks
}
