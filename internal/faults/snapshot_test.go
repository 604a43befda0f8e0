package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/snap"
)

// TestFaultLinkRestoreRejectsHostileSnapshot: a fault link's held packets,
// its Held gauge and its stall flag describe one state, and no counter of
// its ledger is negative. A well-framed snapshot that breaks any of that
// must fail the load, naming the faultlink, rather than resume into a stall
// release that leaves the ledger wrong for the rest of the run.
func TestFaultLinkRestoreRejectsHostileSnapshot(t *testing.T) {
	build := func() (*netsim.Dumbbell, *Link) {
		sim := netsim.NewSim()
		plan := &Plan{Events: []Event{{Kind: Handover, At: 200 * time.Millisecond, Dur: 100 * time.Millisecond}}}
		var fl *Link
		d := netsim.NewDumbbell(sim, func(dst netsim.Receiver) netsim.Link {
			fl = Wrap(sim, plan, 3, dst, func(fdst netsim.Receiver) netsim.Link {
				return netsim.NewFixedLink(sim, netsim.NewDropTail(100_000), 10, 10*time.Millisecond, fdst, 3)
			})
			return fl
		}, 1000, []netsim.FlowSpec{{CBRMbps: 5}})
		return d, fl
	}
	load := func(mutate func(*Link)) error {
		donor, fl := build()
		donor.Run(250 * time.Millisecond)
		if !fl.inStall || len(fl.held) == 0 {
			t.Fatalf("barrier is not mid-stall: in stall %v, %d packets held", fl.inStall, len(fl.held))
		}
		mutate(fl)
		e := snap.NewEncoder()
		donor.Snapshot(e)
		blob, err := e.Encode(snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		d, err := snap.Decode(blob, snap.Version)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := build()
		fresh.Restore(d)
		return d.Done()
	}
	if err := load(func(*Link) {}); err != nil {
		t.Fatalf("valid mid-stall snapshot rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Link){
		"Held above the held packets":  func(l *Link) { l.Held++ },
		"packets held outside a stall": func(l *Link) { l.inStall = false },
		"negative counter":             func(l *Link) { l.Delivered = -1 },
	} {
		if err := load(mutate); err == nil || !strings.Contains(err.Error(), "faultlink") {
			t.Errorf("%s: load error %v, want one naming the faultlink", name, err)
		}
	}
}
