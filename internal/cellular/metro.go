package cellular

import (
	"fmt"
	"math/rand"
	"time"
)

// Metro topology builder: N sectors × M users for the city-scale sweeps of
// experiments.Metro (verus-bench -metro). A Metro is pure data — which sector each
// user calls home, which §5.3 scenario drives their channel and mobility,
// and a deterministic inter-cell handover schedule derived from that
// scenario's HandoverEvery/HandoverStall. The experiments harness maps each
// sector onto one cell of a netsim.Mesh (NeighborDelay becomes the mesh
// lookahead) and replays the handover schedules as user re-homing plus
// delivery stalls.

// DefaultNeighborDelay is the inter-sector propagation delay assumed when a
// MetroConfig leaves NeighborDelay zero — the order of an LTE X2 backhaul
// hop between neighboring eNodeBs.
const DefaultNeighborDelay = 3 * time.Millisecond

// Handover is one scheduled inter-cell handover for a user: at At the user
// re-homes to sector To, and deliveries freeze for Stall while the target
// cell takes over (the stall-then-burst signature faults.Handover models
// on a single link).
type Handover struct {
	At    time.Duration
	To    int
	Stall time.Duration
}

// MetroUser is one subscriber: a home sector, the mobility scenario shaping
// both their channel and their handover cadence, and the precomputed
// handover schedule.
type MetroUser struct {
	ID       int
	Home     int
	Scenario Scenario
	// Handovers is sorted by At; empty for stationary scenarios.
	Handovers []Handover
	// Start and Stop bound the user's session when churn is enabled
	// (MetroConfig.ChurnFrac): the flow arrives at Start and departs at Stop.
	// Zero values mean the session covers the whole trial — Start 0 is
	// present from the beginning, Stop 0 never departs.
	Start, Stop time.Duration
}

// MetroSector is one cell site: its channel model configuration, seeded so
// every sector fades independently but reproducibly.
type MetroSector struct {
	ID      int
	Channel Config
}

// Metro is a generated multi-cell topology.
type Metro struct {
	Sectors []MetroSector
	Users   []MetroUser
	// NeighborDelay is the inter-sector propagation delay — the conservative
	// lookahead of the mesh the topology is simulated on.
	NeighborDelay time.Duration
}

// MetroConfig parameterizes NewMetro.
type MetroConfig struct {
	// Sectors is the number of cell sites (N); Users the number of
	// subscribers (M) spread round-robin across them.
	Sectors, Users int
	Tech           Tech
	Operator       Operator
	// MeanMbps overrides each sector's default aggregate mean rate when
	// positive.
	MeanMbps float64
	// NeighborDelay is the inter-sector propagation delay; zero selects
	// DefaultNeighborDelay. It must be positive after defaulting: a
	// zero-delay inter-cell link cannot be conservatively synchronized.
	NeighborDelay time.Duration
	// Horizon bounds the generated handover schedules (default 60 s).
	Horizon time.Duration
	// HandoverScale multiplies the scenarios' handover spacing; zero means
	// 1.0 (natural cadence) and values in (0, 1) compress it so short trials
	// still exercise inter-cell mobility. Stall durations are unaffected.
	HandoverScale float64
	// ChurnFrac is the fraction of users that churn: instead of being
	// present for the whole trial they arrive mid-run and/or depart early
	// (session windows drawn by churnWindow). Zero — the default — draws no
	// churn randomness at all, so topologies generated before churn existed
	// are bit-for-bit unchanged.
	ChurnFrac float64
	// Seed makes the whole topology — scenario assignment, channel seeds,
	// handover times — a pure function of the configuration.
	Seed int64
}

// NewMetro generates a topology. All randomness is drawn from cfg.Seed in a
// fixed order, so equal configs yield deeply equal topologies.
func NewMetro(cfg MetroConfig) (*Metro, error) {
	if cfg.Sectors <= 0 {
		return nil, fmt.Errorf("cellular: metro needs at least one sector, got %d", cfg.Sectors)
	}
	if cfg.Users <= 0 {
		return nil, fmt.Errorf("cellular: metro needs at least one user, got %d", cfg.Users)
	}
	if cfg.NeighborDelay == 0 {
		cfg.NeighborDelay = DefaultNeighborDelay
	}
	if cfg.NeighborDelay < 0 {
		return nil, fmt.Errorf("cellular: negative neighbor delay %v", cfg.NeighborDelay)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 60 * time.Second
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("cellular: negative horizon %v", cfg.Horizon)
	}
	if cfg.HandoverScale == 0 {
		cfg.HandoverScale = 1
	}
	if cfg.HandoverScale < 0 {
		return nil, fmt.Errorf("cellular: negative handover scale %g", cfg.HandoverScale)
	}
	if cfg.ChurnFrac < 0 || cfg.ChurnFrac > 1 {
		return nil, fmt.Errorf("cellular: churn fraction %g outside [0, 1]", cfg.ChurnFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Metro{NeighborDelay: cfg.NeighborDelay}
	for s := 0; s < cfg.Sectors; s++ {
		m.Sectors = append(m.Sectors, MetroSector{
			ID: s,
			Channel: Config{
				Tech:     cfg.Tech,
				Operator: cfg.Operator,
				MeanMbps: cfg.MeanMbps,
				Seed:     rng.Int63(),
			},
		})
	}
	scs := Scenarios()
	for u := 0; u < cfg.Users; u++ {
		user := MetroUser{
			ID:       u,
			Home:     u % cfg.Sectors,
			Scenario: scs[rng.Intn(len(scs))],
		}
		user.Handovers = handoverSchedule(rng, user.Scenario, user.Home, cfg.Sectors, cfg.Horizon, cfg.HandoverScale)
		// Churn draws come strictly after the per-user scenario and handover
		// draws, and only when churn is enabled: a ChurnFrac-zero config
		// consumes the exact RNG stream it always did.
		if cfg.ChurnFrac > 0 && rng.Float64() < cfg.ChurnFrac {
			user.Start, user.Stop = churnWindow(rng, cfg.Horizon)
		}
		m.Users = append(m.Users, user)
	}
	return m, nil
}

// churnWindow draws one churning user's session: arrival uniform over the
// first half of the horizon, session length uniform in [horizon/4,
// 3·horizon/4]. Every churner is therefore active for at least a quarter of
// the trial, arrivals land mid-run, and sessions whose departure would fall
// past the horizon simply run to the end (Stop 0 — no departure event).
func churnWindow(rng *rand.Rand, horizon time.Duration) (start, stop time.Duration) {
	start = time.Duration(rng.Int63n(int64(horizon/2) + 1))
	length := horizon/4 + time.Duration(rng.Int63n(int64(horizon/2)+1))
	stop = start + length
	if stop >= horizon {
		stop = 0
	}
	return start, stop
}

// handoverSchedule rolls a user's handover train out to the horizon: events
// spaced around the scenario's HandoverEvery (±50% jitter), each moving to a
// uniformly chosen different sector with a stall jittered ±30% around
// HandoverStall. Stationary scenarios (HandoverEvery == 0) never hand over;
// single-sector metros have nowhere to go.
func handoverSchedule(rng *rand.Rand, sc Scenario, home, sectors int, horizon time.Duration, scale float64) []Handover {
	if sc.HandoverEvery <= 0 || sectors < 2 {
		return nil
	}
	every := time.Duration(float64(sc.HandoverEvery) * scale)
	if every <= 0 {
		every = time.Millisecond
	}
	var hs []Handover
	cur := home
	at := time.Duration(0)
	for {
		at += every/2 + time.Duration(rng.Int63n(int64(every)))
		if at > horizon {
			break
		}
		to := rng.Intn(sectors - 1)
		if to >= cur {
			to++ // uniform over sectors != cur
		}
		stall := sc.HandoverStall * time.Duration(70+rng.Intn(61)) / 100
		hs = append(hs, Handover{At: at, To: to, Stall: stall})
		cur = to
	}
	return hs
}

// UsersBySector groups user indices by home sector, in user order — the
// iteration shape the harness builds per-cell flows from.
func (m *Metro) UsersBySector() [][]int {
	by := make([][]int, len(m.Sectors))
	for i, u := range m.Users {
		by[u.Home] = append(by[u.Home], i)
	}
	return by
}
