package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// The Metro harness is the city-scale experiment: N cell sectors on
// a sharded netsim.Mesh, M concurrent flows spread across them, swept over
// flow counts in the thousands for each contender protocol. Each sector is
// an independent trace-driven cell (its own cellular fading, queue, and
// TraceLink); users hand over between sectors on the schedules their §5.3
// mobility scenario generates, and a handed-over user's traffic detours over
// the inter-sector mesh (two backhaul hops) until it returns home. The
// rendered figures are per-cell Jain fairness and the aggregate one-way
// delay CDF — the at-scale CC evaluation matrix ZEUS argues for.
//
// Determinism is executor-independent twice over: trials run through
// runner.Map (serial ≡ parallel-N), and each trial's mesh renders
// byte-identically whether it executes on the single-heap reference or
// sharded across any worker count (the netsim equivalence contract).

// MetroOptions scales the metro sweep.
type MetroOptions struct {
	// Sectors is the cell count (mesh cells). Default 8.
	Sectors int
	// FlowCounts are the sweep points: total concurrent flows spread
	// round-robin across sectors. Default {1000, 4000, 10000}.
	FlowCounts []int
	// Duration per trial.
	Duration time.Duration
	// Shards selects the mesh executor inside each trial: 0 runs the
	// single-heap reference, k > 0 runs the conservative sharded executor
	// with k workers. Rendered output is byte-identical at every setting.
	Shards int
	// Tech picks the radio profile for every sector.
	Tech cellular.Tech
	// HandoverScale compresses the scenarios' handover cadence (see
	// cellular.MetroConfig); zero keeps the natural spacing.
	HandoverScale float64
	// ChurnFrac is the fraction of users that arrive mid-run and/or depart
	// early (see cellular.MetroConfig.ChurnFrac). Zero disables churn and
	// leaves pre-churn topologies byte-identical.
	ChurnFrac float64
	Seed      int64
	// Parallel is the trial worker count (0 = GOMAXPROCS, 1 = serial).
	Parallel int
	// Obs, when non-nil, instruments every sector link and the mesh itself.
	Obs *obs.Observer

	// CheckpointEvery, when positive, runs the sweep serially (Parallel is
	// ignored) and writes a versioned snapshot of the in-flight trial to
	// CheckpointPath at every CheckpointEvery of virtual time — each write
	// lands at a mesh lookahead barrier, where the executors are quiescent.
	// Requires CheckpointPath. The segmented runs render byte-identically to
	// an uncheckpointed sweep (TestMetroCheckpointResumeEquivalence).
	CheckpointEvery time.Duration
	// CheckpointPath is the snapshot file; each write atomically replaces it.
	CheckpointPath string
	// ResumeFrom, when set, restores the sweep from a snapshot file and runs
	// it to completion. The other options must match the checkpointed
	// configuration exactly — the file carries a config echo that is
	// cross-checked on open, and any mismatch (or a truncated, corrupted, or
	// wrong-version file) fails closed before any state is touched.
	ResumeFrom string
	// CheckpointHook, when non-nil, runs after each successful checkpoint
	// write. It exists for crash injection: the SIGKILL harness kills the
	// process from inside the hook and then resumes from the file.
	CheckpointHook func(ordinal int, path string)
}

// pool returns the trial executor for these options.
func (o MetroOptions) pool() *runner.Pool { return runner.New(o.Parallel) }

// DefaultMetroOptions is the full city-scale sweep (tens of minutes of wall
// time at the 100k point), with a third of the users churning mid-run.
func DefaultMetroOptions() MetroOptions {
	return MetroOptions{
		Sectors:    8,
		FlowCounts: []int{10000, 40000, 100000},
		Duration:   30 * time.Second,
		Shards:     8,
		Tech:       cellular.TechLTE,
		ChurnFrac:  0.3,
		Seed:       42,
	}
}

// QuickMetroOptions is the reduced scale used by tests and -quick runs.
func QuickMetroOptions() MetroOptions {
	return MetroOptions{
		Sectors:    4,
		FlowCounts: []int{64},
		Duration:   6 * time.Second,
		Shards:     4,
		Tech:       cellular.TechLTE,
		// Natural handover cadence is 12-90 s; compress it so 6 s trials
		// still see inter-cell mobility and cross-shard detours.
		HandoverScale: 0.05,
		Seed:          42,
	}
}

// metroProtocols are the at-scale contenders.
func metroProtocols() []Maker {
	return []Maker{VerusMaker(6), CubicMaker(), SproutMaker()}
}

// metroSectorMbps is the per-sector aggregate capacity, matching the Fig. 8
// cell provisioning.
func metroSectorMbps(tech cellular.Tech) float64 {
	if tech == cellular.TechLTE {
		return 40
	}
	return 16
}

// metroUserState is the home-cell routing state for one user. Every field is
// read and written only from the user's home-cell timeline, so sharded
// execution needs no synchronization. A trial holds every user's state in
// one slice, indexed by flow id: the routing receivers and the handovers
// point into it, so the states cost one allocation, not one each.
type metroUserState struct {
	home       int
	cur        int
	stallUntil time.Duration
	sink       netsim.Receiver
}

// MetroPoint is one (flow count, protocol) cell of the sweep.
type MetroPoint struct {
	Protocol string
	Flows    int
	// AggMbps is total delivered throughput across every flow.
	AggMbps float64
	// CellJain[s] is Jain's index over the mean rates of the flows homed in
	// sector s.
	CellJain []float64
	// DelayQuantiles are the aggregate one-way delay CDF points (seconds)
	// at metroCDFQuantiles.
	DelayQuantiles []float64
	// Handovers counts executed inter-cell handovers; CrossMsgs counts mesh
	// messages (detour hops) the trial generated.
	Handovers int64
	CrossMsgs uint64
	// Attrib is the trial-wide one-way delay decomposition, merged across
	// sectors; CellAttrib[s] is sector s's own aggregate. Render ignores
	// both — they feed RenderAttribution, a separate golden figure.
	Attrib     stats.Attribution
	CellAttrib []stats.Attribution
}

// metroCDFQuantiles are the percentiles the delay-CDF figure reports.
var metroCDFQuantiles = []float64{5, 25, 50, 75, 90, 95, 99}

// MetroResult is the rendered sweep.
type MetroResult struct {
	Sectors  int
	Duration time.Duration
	Tech     cellular.Tech
	Points   []MetroPoint
}

// Metro runs the sweep: one trial per (flow count, protocol) on the options'
// worker pool.
func Metro(opts MetroOptions) (MetroResult, error) {
	if opts.Sectors <= 0 {
		opts.Sectors = 8
	}
	if len(opts.FlowCounts) == 0 {
		opts.FlowCounts = []int{1000, 4000, 10000}
	}
	if opts.Duration <= 0 {
		opts.Duration = 30 * time.Second
	}
	for _, n := range opts.FlowCounts {
		if n <= 0 {
			return MetroResult{}, fmt.Errorf("experiments: metro flow count %d must be positive", n)
		}
	}
	if !(opts.ChurnFrac >= 0 && opts.ChurnFrac <= 1) { // NaN fails too
		return MetroResult{}, fmt.Errorf("experiments: metro churn fraction %v outside [0, 1]", opts.ChurnFrac)
	}
	if !(opts.HandoverScale >= 0 && opts.HandoverScale <= cellular.MaxHandoverScale) { // NaN fails too
		return MetroResult{}, fmt.Errorf("experiments: metro handover scale %v outside [0, %v]", opts.HandoverScale, cellular.MaxHandoverScale)
	}
	if opts.CheckpointEvery < 0 {
		return MetroResult{}, fmt.Errorf("experiments: metro checkpoint interval %v must not be negative", opts.CheckpointEvery)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointPath == "" {
		return MetroResult{}, fmt.Errorf("experiments: metro CheckpointEvery set without a CheckpointPath")
	}
	if opts.CheckpointPath != "" && opts.CheckpointEvery <= 0 {
		return MetroResult{}, fmt.Errorf("experiments: metro CheckpointPath set without a CheckpointEvery interval")
	}
	if opts.CheckpointPath != "" || opts.ResumeFrom != "" {
		return metroCheckpointed(opts)
	}
	out := MetroResult{Sectors: opts.Sectors, Duration: opts.Duration, Tech: opts.Tech}
	var jobs []runner.Job[MetroPoint]
	for _, j := range metroJobs(opts) {
		jobs = append(jobs, runner.Job[MetroPoint]{
			Key: j.key,
			Run: func(seed int64) MetroPoint { return metroTrial(opts, j.mk, j.flows, seed) },
		})
	}
	points := runner.Map(opts.pool(), opts.Seed, jobs)
	out.Points = append(out.Points, points...)
	return out, nil
}

// The routing fabric is three persistent receivers per sector — home
// delivery, link egress, and the detour bounce — so packets cross the mesh
// without boxing per-packet closures (the pooled zero-alloc path). They are
// pointer types, not ReceiverFunc closures, because checkpointing requires
// comparable receivers: a pending delivery serializes as the receiver's
// registry id (DESIGN.md §Checkpoint).

// metroHomeRecv hands a packet to its flow's sink on the home timeline,
// honoring any active handover stall by deferring to the release instant
// (the stall-then-burst delivery signature).
type metroHomeRecv struct {
	sim    *netsim.Sim
	states []metroUserState
}

// Receive implements netsim.Receiver.
func (r *metroHomeRecv) Receive(p *netsim.Packet) {
	st := &r.states[p.Flow]
	if now := r.sim.Now(); now < st.stallUntil {
		// The handover stall defers delivery; the wait is fault hold time,
		// closed by the sink at the release instant.
		p.MarkDelay(now, stats.DelayFaultHold)
		r.sim.SchedulePacket(st.stallUntil, st.sink, p)
		return
	}
	st.sink.Receive(p)
}

// metroBounce runs on the serving sector's timeline and sends the packet
// back to its home cell; home is immutable per flow, so reading it from
// another cell's timeline is safe under sharding.
type metroBounce struct {
	s      int
	mesh   *netsim.Mesh
	delay  time.Duration
	states []metroUserState
	home   []*metroHomeRecv
}

// Receive implements netsim.Receiver.
func (b *metroBounce) Receive(p *netsim.Packet) {
	st := &b.states[p.Flow]
	b.mesh.SendPacket(b.s, st.home, b.delay, b.home[st.home], p)
}

// metroLinkRecv is the sector link's egress: home-cell delivery for users
// still served here, or the detour for handed-over users — one backhaul hop
// to the serving sector and one back, both riding the mesh's lookahead
// channels, which is what makes handovers cross-shard traffic.
type metroLinkRecv struct {
	s      int
	sim    *netsim.Sim
	mesh   *netsim.Mesh
	delay  time.Duration
	states []metroUserState
	home   []*metroHomeRecv
	bounce []*metroBounce
}

// Receive implements netsim.Receiver.
func (r *metroLinkRecv) Receive(p *netsim.Packet) {
	st := &r.states[p.Flow]
	if st.cur == r.s {
		r.home[r.s].Receive(p)
		return
	}
	// Both backhaul hops (out to the serving sector and back home) charge to
	// the detour component; the bounce continues the same open interval.
	p.MarkDelay(r.sim.Now(), stats.DelayDetour)
	r.mesh.SendPacket(r.s, st.cur, r.delay, r.bounce[st.cur], p)
}

// metroHandover moves its user to the handover's target sector and opens its
// stall, and counts it in the home cell's slot; it runs on the home-cell
// timeline, which owns both.
type metroHandover struct {
	st    *metroUserState
	h     cellular.Handover
	count *int64
}

// Receive implements netsim.Receiver.
func (o *metroHandover) Receive(*netsim.Packet) {
	o.st.cur = o.h.To
	o.st.stallUntil = o.h.At + o.h.Stall
	*o.count++
}

// metroSim is one fully built metro trial: the mesh, the per-sector
// bottlenecks, and the per-user flow state. Splitting construction from
// execution is what checkpointing needs — a restore re-runs metroBuild (same
// options, same seed) and then overlays the snapshot.
type metroSim struct {
	opts            MetroOptions
	mk              Maker
	flows           int
	seed            int64
	topo            *cellular.Metro
	mesh            *netsim.Mesh
	states          []metroUserState
	metrics         []*netsim.FlowMetrics
	sources         []*netsim.Source
	handoversByCell []int64
	links           []*netsim.TraceLink
	// attrib[s] aggregates delay attribution for the flows homed in sector
	// s. Sinks run on the home-cell timeline, so each aggregate is touched
	// by exactly one shard — race-free without synchronization, like
	// handoversByCell.
	attrib []*stats.Attribution
}

// metroBuild constructs one full metro simulation: the cellular topology,
// the mesh, per-sector bottlenecks, per-user flows and handover routing.
// Construction is a pure function of (opts, mk, flows, seed); the rebuild
// half of a restore depends on that.
func metroBuild(opts MetroOptions, mk Maker, flows int, seed int64) *metroSim {
	topo, err := cellular.NewMetro(cellular.MetroConfig{
		Sectors:       opts.Sectors,
		Users:         flows,
		Tech:          opts.Tech,
		Operator:      cellular.OperatorB,
		MeanMbps:      metroSectorMbps(opts.Tech),
		Horizon:       opts.Duration,
		HandoverScale: opts.HandoverScale,
		ChurnFrac:     opts.ChurnFrac,
		Seed:          seed,
	})
	if err != nil {
		panic(err) // options were validated; a failure here is a harness bug
	}
	mesh := netsim.NewMesh(opts.Sectors, cellular.NeighborDelay)
	mesh.Instrument(opts.Obs, seed)

	m := &metroSim{
		opts:    opts,
		mk:      mk,
		flows:   flows,
		seed:    seed,
		topo:    topo,
		mesh:    mesh,
		states:  make([]metroUserState, flows),
		metrics: make([]*netsim.FlowMetrics, flows),
		sources: make([]*netsim.Source, flows),
		// Handover counts are kept per home cell — each slot is written only
		// from that cell's timeline, so sharded execution stays race-free —
		// and summed after the run.
		handoversByCell: make([]int64, opts.Sectors),
		links:           make([]*netsim.TraceLink, opts.Sectors),
		attrib:          make([]*stats.Attribution, opts.Sectors),
	}
	for s := 0; s < opts.Sectors; s++ {
		m.attrib[s] = new(stats.Attribution)
	}
	nHandovers := 0
	for _, u := range topo.Users {
		nHandovers += len(u.Handovers)
	}
	handovers := make([]metroHandover, 0, nHandovers)
	home := make([]*metroHomeRecv, opts.Sectors)
	bounce := make([]*metroBounce, opts.Sectors)
	for s := 0; s < opts.Sectors; s++ {
		home[s] = &metroHomeRecv{sim: mesh.Cell(s), states: m.states}
		mesh.Cell(s).RegisterReceiver(home[s])
	}
	for s := 0; s < opts.Sectors; s++ {
		bounce[s] = &metroBounce{s: s, mesh: mesh, delay: cellular.NeighborDelay,
			states: m.states, home: home}
		mesh.Cell(s).RegisterReceiver(bounce[s])
	}
	for s := 0; s < opts.Sectors; s++ {
		sim := mesh.Cell(s)
		recv := &metroLinkRecv{s: s, sim: sim, mesh: mesh, delay: cellular.NeighborDelay,
			states: m.states, home: home, bounce: bounce}
		sim.RegisterReceiver(recv)
		model := cellular.NewModel(topo.Sectors[s].Channel)
		tr := model.Trace(opts.Duration)
		m.links[s] = netsim.NewTraceLink(sim, netsim.NewDropTail(bloatBytes), tr,
			10*time.Millisecond, recv, true, topo.Sectors[s].Channel.Seed+1)
		m.links[s].Instrument(opts.Obs, seed)
	}
	ctrls := mk.NewN(flows)
	for _, users := range topo.UsersBySector() {
		for _, ui := range users {
			u := topo.Users[ui]
			sim := mesh.Cell(u.Home)
			st := &m.states[u.ID]
			*st = metroUserState{home: u.Home, cur: u.Home}
			ctrl := ctrls[u.ID]
			observe(opts.Obs, ctrl, seed, u.ID)
			// Stagger starts so thousands of flows do not slow-start in
			// lockstep; the phase is a pure function of the user id. Churning
			// users shift their whole session window by the same stagger, so
			// session lengths survive and a zero Stop still means "runs to
			// the end" (claiming no extra event keys for non-churners).
			stagger := time.Duration(u.ID%64) * 25 * time.Millisecond
			start := stagger + u.Start
			stop := u.Stop
			if stop > 0 {
				stop += stagger
			}
			src, fm := netsim.NewSource(sim, u.ID, ctrl, m.links[u.Home], MTU,
				10*time.Millisecond, start, stop)
			src.SetAttribution(m.attrib[u.Home])
			src.Instrument(opts.Obs, seed)
			st.sink = src.Sink()
			m.sources[u.ID] = src
			m.metrics[u.ID] = fm
			for _, h := range u.Handovers {
				handovers = append(handovers, metroHandover{st: st, h: h, count: &m.handoversByCell[u.Home]})
				sim.ScheduleCallback(h.At, &handovers[len(handovers)-1])
			}
		}
	}
	return m
}

// runTo advances the trial to the given virtual time on the options'
// executor. Segmented calls are equivalent to one straight run, and each
// return lands at a quiescent mesh barrier — the only place a snapshot is
// valid.
func (m *metroSim) runTo(until time.Duration) {
	if m.opts.Shards > 0 {
		m.mesh.RunSharded(until, m.opts.Shards)
	} else {
		m.mesh.RunSingle(until)
	}
}

// collect renders the finished trial into its sweep point.
func (m *metroSim) collect() MetroPoint {
	var handovers int64
	for _, n := range m.handoversByCell {
		handovers += n
	}
	pt := MetroPoint{Protocol: m.mk.Name, Flows: m.flows, Handovers: handovers, CrossMsgs: m.mesh.CrossDelivered()}
	samples := 0
	for _, u := range m.topo.Users {
		samples += m.metrics[u.ID].Delay.N()
	}
	delay := stats.NewSummary(samples)
	perCell := make([][]float64, m.opts.Sectors)
	for _, u := range m.topo.Users {
		fm := m.metrics[u.ID]
		mbps := fm.MeanMbps(m.opts.Duration)
		pt.AggMbps += mbps
		perCell[u.Home] = append(perCell[u.Home], mbps)
		delay.Merge(fm.Delay)
	}
	for s := 0; s < m.opts.Sectors; s++ {
		pt.CellJain = append(pt.CellJain, stats.JainIndex(perCell[s]))
	}
	for _, q := range metroCDFQuantiles {
		pt.DelayQuantiles = append(pt.DelayQuantiles, delay.Percentile(q))
	}
	pt.CellAttrib = make([]stats.Attribution, m.opts.Sectors)
	for s, a := range m.attrib {
		pt.CellAttrib[s] = *a
		pt.Attrib.Merge(a)
	}
	return pt
}

// Walk implements snap.Walkable at a mesh barrier: mesh and cell core state
// first, then every component in construction order, then the heaps — the
// order the two-phase load depends on. A load runs over a freshly rebuilt
// trial.
func (m *metroSim) Walk(w snap.Walker) {
	w.Tag("metrotrial")
	m.mesh.Walk(w)
	for _, l := range m.links {
		l.Walk(w)
	}
	for id := 0; id < m.flows && w.Err() == nil; id++ {
		st := &m.states[id]
		w.Int(&st.cur)
		w.Dur(&st.stallUntil)
		if w.Loading() && w.Err() == nil && (st.cur < 0 || st.cur >= m.opts.Sectors) {
			w.Fail(fmt.Errorf("experiments: flow %d checkpointed on sector %d of %d", id, st.cur, m.opts.Sectors))
			return
		}
		m.sources[id].Walk(w)
	}
	w.FixedI64s(m.handoversByCell, "experiments: handover cells")
	for _, a := range m.attrib {
		a.Walk(w)
	}
	m.mesh.WalkHeaps(w)
}

// metroTrial builds and runs one full metro trial straight through — the
// runner.Map path.
func metroTrial(opts MetroOptions, mk Maker, flows int, seed int64) MetroPoint {
	m := metroBuild(opts, mk, flows, seed)
	m.runTo(opts.Duration)
	return m.collect()
}

// Render prints the sweep as three figures: the headline
// throughput/fairness table, the per-cell Jain fairness rows, and the
// aggregate one-way delay CDF. Shard and worker counts are deliberately
// absent: the render must be byte-identical across executors.
func (r MetroResult) Render() string {
	s := fmt.Sprintf("Metro sweep: %d sectors (%s), %v per trial, handover-driven cross-cell detours\n",
		r.Sectors, r.Tech, r.Duration)
	var rows [][]string
	for _, p := range r.Points {
		minJ, meanJ := 1.0, 0.0
		for _, j := range p.CellJain {
			if j < minJ {
				minJ = j
			}
			meanJ += j
		}
		if len(p.CellJain) > 0 {
			meanJ /= float64(len(p.CellJain))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Flows),
			p.Protocol,
			fmt.Sprintf("%.1f", p.AggMbps),
			fmt.Sprintf("%.3f", meanJ),
			fmt.Sprintf("%.3f", minJ),
			fmt.Sprintf("%d", p.Handovers),
			fmt.Sprintf("%d", p.CrossMsgs),
		})
	}
	s += table([]string{"flows", "protocol", "agg tput (Mbps)", "Jain mean", "Jain min", "handovers", "cross msgs"}, rows)

	s += "\nPer-cell Jain fairness\n"
	header := []string{"flows", "protocol"}
	for c := 0; c < r.Sectors; c++ {
		header = append(header, fmt.Sprintf("cell %d", c))
	}
	rows = nil
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%d", p.Flows), p.Protocol}
		for _, j := range p.CellJain {
			row = append(row, fmt.Sprintf("%.3f", j))
		}
		rows = append(rows, row)
	}
	s += table(header, rows)

	s += "\nAggregate one-way delay CDF (ms)\n"
	header = []string{"flows", "protocol"}
	for _, q := range metroCDFQuantiles {
		header = append(header, fmt.Sprintf("p%.0f", q))
	}
	rows = nil
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%d", p.Flows), p.Protocol}
		for _, d := range p.DelayQuantiles {
			row = append(row, fmt.Sprintf("%.1f", d*1000))
		}
		rows = append(rows, row)
	}
	s += table(header, rows)
	return s
}

// RenderAttribution prints the delay-budget figure: per sweep point, each
// component's share of the summed one-way delay, bucket-resolution p95/p99
// upper bounds on the total, and the accounting-identity ledger (violations
// plus negative components — golden-pinned at zero). Like Render, the output
// carries no shard or worker counts: it must be byte-identical across
// executors.
func (r MetroResult) RenderAttribution() string {
	s := fmt.Sprintf("Metro delay attribution: %d sectors (%s), %v per trial; components sum exactly to one-way delay\n",
		r.Sectors, r.Tech, r.Duration)
	header := []string{"flows", "protocol", "pkts", "mean (ms)"}
	for c := 0; c < stats.NumDelayComps; c++ {
		header = append(header, stats.DelayComp(c).String()+" %")
	}
	header = append(header, "p95 (ms)", "p99 (ms)", "viol")
	var rows [][]string
	for _, p := range r.Points {
		row := []string{
			fmt.Sprintf("%d", p.Flows),
			p.Protocol,
			fmt.Sprintf("%d", p.Attrib.Count),
			fmt.Sprintf("%.2f", p.Attrib.MeanTotalSeconds()*1e3),
		}
		for c := 0; c < stats.NumDelayComps; c++ {
			row = append(row, fmt.Sprintf("%.1f", p.Attrib.Share(stats.DelayComp(c))*100))
		}
		row = append(row,
			fmt.Sprintf("%.1f", p.Attrib.TotalQuantileSeconds(95)*1e3),
			fmt.Sprintf("%.1f", p.Attrib.TotalQuantileSeconds(99)*1e3),
			fmt.Sprintf("%d", p.Attrib.Violations+p.Attrib.Negatives))
		rows = append(rows, row)
	}
	s += table(header, rows)

	s += "\nPer-cell fault+detour share of one-way delay (%)\n"
	header = []string{"flows", "protocol"}
	for ci := 0; ci < r.Sectors; ci++ {
		header = append(header, fmt.Sprintf("cell %d", ci))
	}
	rows = nil
	for _, p := range r.Points {
		row := []string{fmt.Sprintf("%d", p.Flows), p.Protocol}
		for ci := range p.CellAttrib {
			a := &p.CellAttrib[ci]
			row = append(row, fmt.Sprintf("%.1f",
				(a.Share(stats.DelayFaultHold)+a.Share(stats.DelayDetour))*100))
		}
		rows = append(rows, row)
	}
	s += table(header, rows)
	return s
}
