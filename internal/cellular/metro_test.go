package cellular

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestNewMetroDeterministic(t *testing.T) {
	cfg := MetroConfig{Sectors: 6, Users: 120, Tech: TechLTE, Seed: 7, Horizon: 5 * time.Minute}
	a, err := NewMetro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMetro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different topologies")
	}
	c, err := NewMetro(MetroConfig{Sectors: 6, Users: 120, Tech: TechLTE, Seed: 8, Horizon: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical topologies")
	}
}

func TestNewMetroShape(t *testing.T) {
	m, err := NewMetro(MetroConfig{Sectors: 4, Users: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := validateMetro(m); err != nil {
		t.Fatalf("generated topology fails validation: %v", err)
	}
	if len(m.Sectors) != 4 || len(m.Users) != 50 {
		t.Fatalf("got %d sectors / %d users, want 4 / 50", len(m.Sectors), len(m.Users))
	}
	for i, u := range m.Users {
		if u.Home != i%4 {
			t.Fatalf("user %d homed on %d, want round-robin %d", i, u.Home, i%4)
		}
	}
	seen := map[int64]bool{}
	for _, s := range m.Sectors {
		if seen[s.Channel.Seed] {
			t.Errorf("sector %d reuses channel seed %d", s.ID, s.Channel.Seed)
		}
		seen[s.Channel.Seed] = true
	}
	by := m.UsersBySector()
	total := 0
	for s, users := range by {
		total += len(users)
		for _, ui := range users {
			if m.Users[ui].Home != s {
				t.Errorf("UsersBySector put user %d (home %d) in sector %d", ui, m.Users[ui].Home, s)
			}
		}
	}
	if total != 50 {
		t.Errorf("UsersBySector covers %d users, want 50", total)
	}
}

func TestNewMetroScenarioMix(t *testing.T) {
	m, err := NewMetro(MetroConfig{Sectors: 3, Users: 500, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, u := range m.Users {
		counts[u.Scenario.Name]++
	}
	if len(counts) != len(Scenarios()) {
		t.Fatalf("500 users drew only %d of the %d scenarios: %v", len(counts), len(Scenarios()), counts)
	}
}

func TestHandoverSchedules(t *testing.T) {
	horizon := 3 * time.Minute
	m, err := NewMetro(MetroConfig{Sectors: 5, Users: 300, Seed: 4, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	mobile, stationary := 0, 0
	for _, u := range m.Users {
		if u.Scenario.HandoverEvery == 0 {
			stationary++
			if len(u.Handovers) != 0 {
				t.Errorf("stationary user %d (%s) has %d handovers", u.ID, u.Scenario.Name, len(u.Handovers))
			}
			continue
		}
		mobile++
		cur := u.Home
		prev := time.Duration(0)
		for i, h := range u.Handovers {
			if h.At <= prev || h.At > horizon {
				t.Errorf("user %d handover %d at %v outside (%v, %v]", u.ID, i, h.At, prev, horizon)
			}
			if h.To == cur || h.To < 0 || h.To >= 5 {
				t.Errorf("user %d handover %d: %d → %d invalid", u.ID, i, cur, h.To)
			}
			lo, hi := u.Scenario.HandoverStall*70/100, u.Scenario.HandoverStall*130/100
			if h.Stall < lo || h.Stall > hi {
				t.Errorf("user %d handover %d stall %v outside [%v, %v]", u.ID, i, h.Stall, lo, hi)
			}
			cur, prev = h.To, h.At
		}
		// sectorAt must walk the same schedule.
		if got := sectorAt(&u, horizon); got != cur {
			t.Errorf("user %d sectorAt(horizon) = %d, want %d", u.ID, got, cur)
		}
		if got := sectorAt(&u, 0); got != u.Home {
			t.Errorf("user %d sectorAt(0) = %d, want home %d", u.ID, got, u.Home)
		}
	}
	if mobile == 0 || stationary == 0 {
		t.Fatalf("degenerate draw: %d mobile, %d stationary users", mobile, stationary)
	}
}

// TestMetroSlicesAreCapped checks the slices NewMetro and UsersBySector carve
// from one shared array: each handover train and each sector's user list
// ends at its own capacity, so an append to one copies instead of writing
// into its neighbour's.
func TestMetroSlicesAreCapped(t *testing.T) {
	m, err := NewMetro(MetroConfig{Sectors: 5, Users: 300, Seed: 4, Horizon: 3 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	trains := 0
	for i := range m.Users {
		u := &m.Users[i]
		if len(u.Handovers) == 0 {
			continue
		}
		trains++
		if cap(u.Handovers) != len(u.Handovers) {
			t.Fatalf("user %d: handover train of %d has capacity %d", u.ID, len(u.Handovers), cap(u.Handovers))
		}
	}
	if trains < 2 {
		t.Fatalf("degenerate draw: %d users hand over", trains)
	}
	by := m.UsersBySector()
	total := 0
	for s, users := range by {
		total += len(users)
		if cap(users) != len(users) {
			t.Fatalf("sector %d: %d users in a list of capacity %d", s, len(users), cap(users))
		}
		for _, i := range users {
			if m.Users[i].Home != s {
				t.Fatalf("sector %d lists user %d, homed on %d", s, i, m.Users[i].Home)
			}
		}
	}
	if total != len(m.Users) {
		t.Fatalf("sector lists hold %d users, want %d", total, len(m.Users))
	}
}

func TestNewMetroSingleSectorHasNoHandovers(t *testing.T) {
	m, err := NewMetro(MetroConfig{Sectors: 1, Users: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range m.Users {
		if len(u.Handovers) != 0 {
			t.Fatalf("user %d has handovers in a single-sector metro", u.ID)
		}
	}
}

func TestNewMetroRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  MetroConfig
	}{
		{"zero-sectors", MetroConfig{Sectors: 0, Users: 1}},
		{"negative-sectors", MetroConfig{Sectors: -2, Users: 1}},
		{"zero-users", MetroConfig{Sectors: 1, Users: 0}},
		{"churn-above-one", MetroConfig{Sectors: 1, Users: 1, ChurnFrac: 2}},
		{"churn-nan", MetroConfig{Sectors: 1, Users: 1, ChurnFrac: math.NaN()}},
		{"negative-horizon", MetroConfig{Sectors: 1, Users: 1, Horizon: -time.Second}},
		{"handover-negative", MetroConfig{Sectors: 1, Users: 1, HandoverScale: -1}},
		{"handover-nan", MetroConfig{Sectors: 1, Users: 1, HandoverScale: math.NaN()}},
		{"handover-inf", MetroConfig{Sectors: 1, Users: 1, HandoverScale: math.Inf(1)}},
		{"handover-huge", MetroConfig{Sectors: 1, Users: 1, HandoverScale: 1e300}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewMetro(c.cfg); err == nil {
				t.Fatalf("config %+v accepted", c.cfg)
			}
		})
	}
}

func TestMetroValidateCatchesCorruption(t *testing.T) {
	m, err := NewMetro(MetroConfig{Sectors: 3, Users: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m.Users[0].Home = 99
	if err := validateMetro(m); err == nil {
		t.Fatal("out-of-range home sector accepted")
	}
}

// validateMetro checks the invariants consumers rely on; NewMetro output
// always passes.
func validateMetro(m *Metro) error {
	if len(m.Sectors) == 0 {
		return fmt.Errorf("cellular: metro has no sectors")
	}
	for i, s := range m.Sectors {
		if s.ID != i {
			return fmt.Errorf("cellular: sector %d has ID %d", i, s.ID)
		}
	}
	for _, u := range m.Users {
		if u.Home < 0 || u.Home >= len(m.Sectors) {
			return fmt.Errorf("cellular: user %d homed on unknown sector %d", u.ID, u.Home)
		}
		if u.Start < 0 {
			return fmt.Errorf("cellular: user %d has negative session start %v", u.ID, u.Start)
		}
		if u.Stop != 0 && u.Stop <= u.Start {
			return fmt.Errorf("cellular: user %d session stop %v not after start %v", u.ID, u.Stop, u.Start)
		}
		if !sort.SliceIsSorted(u.Handovers, func(a, b int) bool { return u.Handovers[a].At < u.Handovers[b].At }) {
			return fmt.Errorf("cellular: user %d handover schedule not sorted", u.ID)
		}
		cur := u.Home
		for i, h := range u.Handovers {
			if h.To < 0 || h.To >= len(m.Sectors) {
				return fmt.Errorf("cellular: user %d handover %d targets unknown sector %d", u.ID, i, h.To)
			}
			if h.To == cur {
				return fmt.Errorf("cellular: user %d handover %d is a self-handover to sector %d", u.ID, i, h.To)
			}
			if h.Stall <= 0 {
				return fmt.Errorf("cellular: user %d handover %d has non-positive stall %v", u.ID, i, h.Stall)
			}
			cur = h.To
		}
	}
	return nil
}

// sectorAt returns the sector serving u at time t under its handover
// schedule.
func sectorAt(u *MetroUser, t time.Duration) int {
	s := u.Home
	for _, h := range u.Handovers {
		if h.At > t {
			break
		}
		s = h.To
	}
	return s
}
