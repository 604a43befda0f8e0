package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
}

func TestSimFIFOAmongSimultaneous(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

// TestSimPastClampKeepsFIFO pins the sim.go tiebreaker: an event scheduled
// in the past is clamped to now and takes a fresh seq, so it fires after
// every event already queued for the current instant and never reorders
// them — the property the deterministic experiment runner leans on.
func TestSimPastClampKeepsFIFO(t *testing.T) {
	s := NewSim()
	var order []string
	add := func(tag string) func() { return func() { order = append(order, tag) } }
	s.Schedule(10*time.Millisecond, func() {
		order = append(order, "a")
		// In the past: must clamp to now (10 ms) and queue behind b and c.
		s.Schedule(3*time.Millisecond, func() {
			order = append(order, "past")
			if s.Now() != 10*time.Millisecond {
				t.Errorf("clamped event fired at %v, want 10ms", s.Now())
			}
		})
	})
	s.Schedule(10*time.Millisecond, add("b"))
	s.Schedule(10*time.Millisecond, add("c"))
	s.Schedule(15*time.Millisecond, add("later"))
	s.Run(time.Second)
	want := []string{"a", "b", "c", "past", "later"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSimSameTimeSeqOrderAcrossSources checks FIFO among same-timestamp
// events regardless of when they were scheduled: every entry point shares
// the seq counter.
func TestSimSameTimeSeqOrderAcrossSources(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(5*time.Millisecond, func() { order = append(order, 0) })
	s.Schedule(s.Now()+5*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(5*time.Millisecond, func() {
		order = append(order, 2)
		s.Schedule(s.Now(), func() { order = append(order, 3) }) // same instant, fresh seq
	})
	s.Schedule(5*time.Millisecond, func() { order = append(order, 4) })
	s.Run(time.Second)
	want := []int{0, 1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimPastEventsClamped(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(10*time.Millisecond, func() {
		s.Schedule(time.Millisecond, func() { fired = true }) // in the past
	})
	s.Run(20 * time.Millisecond)
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
}

func TestSimRunStopsAtLimit(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Fatal("event not fired on second run")
	}
}

func TestSimEvery(t *testing.T) {
	s := NewSim()
	count := 0
	var stop func()
	stop = s.Every(10*time.Millisecond, func() {
		count++
		if count == 5 {
			stop()
		}
	})
	s.Run(time.Second)
	if count != 5 {
		t.Fatalf("count = %d, want 5 (stop should halt ticker)", count)
	}
}

func TestSimEveryInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval should panic")
		}
	}()
	NewSim().Every(0, func() {})
}

// Property: events always fire in non-decreasing time order.
func TestQuickSimMonotoneTime(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewSim()
		var last time.Duration
		ok := true
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			s.Schedule(at, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run(time.Hour)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
