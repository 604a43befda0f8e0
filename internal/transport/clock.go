package transport

import (
	"time"

	"repro/internal/netsim"
)

// The real-UDP transport paces actual sockets on the host clock, and this
// file holds its only two reads of it: now, and the event loop's ticker. The
// steps the loop calls (trySend, handleAck, checkTimers) take the time as an
// argument, so a test or a simulator event can drive them at any instant.

// now reads the host clock.
func now() time.Time {
	//lint:nowalltime real-time -- the real-UDP transport stamps and paces actual sockets; this is its one host-clock read
	return time.Now()
}

// elapsed is the sender's time axis: host time since Dial.
func (s *Sender) elapsed() time.Duration { return now().Sub(s.start) }

// run is the sender's event loop. It owns the host and the controller: acks
// from the read loop and ticks arrive here, one at a time.
func (s *Sender) run() {
	defer close(s.doneCh)
	interval := s.ctrl.TickInterval()
	hasTick := interval > 0
	if !hasTick {
		interval = housekeep
	}
	//lint:nowalltime real-time -- the real-UDP event loop ticks on the host clock
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	t := s.elapsed()
	s.host = netsim.NewHost(s.ctrl, t)
	s.trySend(t)
	for {
		select {
		case <-s.stopCh:
			return
		case h := <-s.ackCh:
			s.handleAck(s.elapsed(), h)
		case <-ticker.C:
			t := s.elapsed()
			if hasTick {
				s.ctrl.Tick(t)
			}
			s.checkTimers(t)
			s.trySend(t)
		}
	}
}
