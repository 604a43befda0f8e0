package sprout

import (
	"fmt"
	"math"

	"repro/internal/snap"
)

// walk visits the checkpointed state: the belief distribution, whose
// resolution the rebuilt configuration fixes, and the tick accumulators.
// Derived quantities (the config's tables, the scratch buffers, the
// look-ahead) are functions of the config and the belief and are rebuilt.
func (s *Sprout) walk(w snap.Walker) {
	w.Tag("sprout")
	w.FixedF64s(s.belief, "sprout: belief bins")
	w.Int(&s.arrivals)
	w.Int(&s.window)
	w.Dur(&s.rttMin)
	w.Dur(&s.rttSumTick)
	w.Int(&s.rttCntTick)
	w.Dur(&s.srtt)
}

// Walk implements snap.Walkable. A load fails closed: the snapshot is walked
// into a scratch copy whose belief is the diffusion buffer, checked, and only
// then committed, so a rejected snapshot leaves the controller as it was.
func (s *Sprout) Walk(w snap.Walker) {
	if !w.Loading() {
		s.walk(w)
		return
	}
	tmp := *s
	tmp.belief = s.next
	tmp.walk(w)
	if w.Err() != nil {
		return
	}
	if err := tmp.reachable(); err != nil {
		w.Fail(err)
		return
	}
	copy(s.belief, tmp.belief)
	tmp.belief = s.belief
	tmp.aheadOK = false
	*s = tmp
}

// reachable reports why no run of this controller could hold the state s
// does, or nil: a belief that is not a probability distribution, a window
// below the probing minimum, a negative count or duration, or an RTT sum over
// no samples.
func (s *Sprout) reachable() error {
	var total float64
	for i, p := range s.belief {
		if !(p >= 0) || math.IsInf(p, 1) {
			return fmt.Errorf("sprout: snapshot belief bin %d is %v, not a probability", i, p)
		}
		total += p
	}
	switch {
	case math.Abs(total-1) > 1e-9:
		return fmt.Errorf("sprout: snapshot belief sums to %v, not 1", total)
	case s.window < 1:
		return fmt.Errorf("sprout: snapshot window %d is below the probing minimum 1", s.window)
	case s.arrivals < 0 || s.rttCntTick < 0:
		return fmt.Errorf("sprout: snapshot counts arrivals %d, rtt samples %d; neither may be negative", s.arrivals, s.rttCntTick)
	case s.rttMin < 0 || s.rttSumTick < 0 || s.srtt < 0:
		return fmt.Errorf("sprout: snapshot durations rttMin %v, rttSumTick %v, srtt %v; none may be negative", s.rttMin, s.rttSumTick, s.srtt)
	case s.rttCntTick == 0 && s.rttSumTick != 0:
		return fmt.Errorf("sprout: snapshot sums %v of RTT over no samples", s.rttSumTick)
	}
	return nil
}
