package experiments

import (
	"fmt"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Checkpoint/resume for the metro sweep (DESIGN.md §10). A checkpoint file
// is one snap container holding: a config echo (cross-checked on resume — a
// snapshot must only ever be overlaid onto the topology it was taken from),
// the sweep points already completed, the in-flight trial's job index and
// barrier time, and the trial snapshot itself. Resume rebuilds the in-flight
// trial from the echoed configuration's seed, overlays the snapshot, and
// continues the sweep; the result is byte-identical to a run that was never
// interrupted.

// metroJob is one (flow count, protocol) cell of the sweep. Both the runner
// path and the serial checkpointed path take their jobs from metroJobs, so
// the keys, the derived trial seeds and the rendered points are the same on
// both.
type metroJob struct {
	key   int64
	flows int
	mk    Maker
}

// metroJobs enumerates the sweep in runner submission order.
func metroJobs(opts MetroOptions) []metroJob {
	var jobs []metroJob
	for fi, flows := range opts.FlowCounts {
		for pi, mk := range metroProtocols() {
			jobs = append(jobs, metroJob{key: int64(100*fi + pi), flows: flows, mk: mk})
		}
	}
	return jobs
}

// walkMetroPoint visits one completed sweep point. sectors bounds the
// per-cell attribution count before a load allocates anything for it: a point
// never carries more cells than the sweep has.
func walkMetroPoint(w snap.Walker, p *MetroPoint, sectors int) {
	w.Str(&p.Protocol)
	w.Int(&p.Flows)
	w.F64(&p.AggMbps)
	w.F64s(&p.CellJain)
	w.F64s(&p.DelayQuantiles)
	w.I64(&p.Handovers)
	w.U64(&p.CrossMsgs)
	p.Attrib.Walk(w)
	n := w.Len(len(p.CellAttrib))
	if w.Loading() && w.Err() == nil {
		if n > sectors {
			w.Fail(fmt.Errorf("experiments: checkpointed point has %d attribution cells, the sweep has %d sectors", n, sectors))
			return
		}
		if n > 0 {
			p.CellAttrib = make([]stats.Attribution, n)
		}
	}
	for i := range p.CellAttrib {
		p.CellAttrib[i].Walk(w)
	}
}

// cfgMismatch prefixes what each identity-critical field of the config echo
// is called when a resume disagrees with it.
const cfgMismatch = "experiments: checkpoint was taken under a different metro configuration: "

// walkMetroConfig visits the config echo. The snapshot fixes the topology:
// the echoed Shards and ChurnFrac load into *opts rather than being
// cross-checked, so a resume never has to restate them (the CLI rejects
// -shards/-churn alongside -resume for the same reason). Everything else —
// sectors, flow counts, duration, tech, handover scale, seed — is
// identity-critical and must match exactly.
func walkMetroConfig(w snap.Walker, opts *MetroOptions) {
	w.Tag("metro")
	w.SameInt(opts.Sectors, cfgMismatch+"sectors")
	w.SameLen(len(opts.FlowCounts), cfgMismatch+"number of flow counts")
	for _, n := range opts.FlowCounts {
		w.SameI64(int64(n), cfgMismatch+"flow count")
	}
	w.SameDur(opts.Duration, cfgMismatch+"duration")
	w.Int(&opts.Shards)
	w.SameInt(int(opts.Tech), cfgMismatch+"tech")
	w.SameF64(opts.HandoverScale, cfgMismatch+"handover scale")
	w.F64(&opts.ChurnFrac)
	w.SameI64(opts.Seed, cfgMismatch+"seed")
}

// walkMetroSweep visits everything a checkpoint file holds ahead of the trial
// snapshot: the config echo, the completed points, and the in-flight trial's
// job index and barrier. A load leaves the decoder positioned for
// metroSim.Walk, and any mismatch fails closed before a single component is
// touched. The counts come from the file, and a well-framed file can still be
// hostile: each is bounded by what this sweep could have written before a
// load allocates for it.
func walkMetroSweep(w snap.Walker, opts *MetroOptions, done *[]MetroPoint, job *int, barrier *time.Duration) {
	walkMetroConfig(w, opts)
	n := w.Len(len(*done))
	if w.Loading() {
		if w.Err() != nil {
			return
		}
		if limit := len(metroJobs(*opts)); n > limit {
			w.Fail(fmt.Errorf("experiments: checkpoint claims %d completed points in a sweep of %d trials", n, limit))
			return
		}
		*done = make([]MetroPoint, n)
	}
	for i := range *done {
		walkMetroPoint(w, &(*done)[i], opts.Sectors)
	}
	w.Int(job)
	w.Dur(barrier)
	if !w.Loading() || w.Err() != nil {
		return
	}
	if *job < 0 || len(*done) != *job {
		w.Fail(fmt.Errorf("experiments: checkpoint has %d completed points but claims job index %d", len(*done), *job))
	} else if *barrier <= 0 || *barrier >= opts.Duration {
		w.Fail(fmt.Errorf("experiments: checkpoint barrier %v outside (0, %v)", *barrier, opts.Duration))
	}
}

// writeMetroCheckpoint serializes the sweep state into e and atomically
// replaces the checkpoint file. The encoder is the sweep's own: it is Reset
// here, not replaced, so after the first barrier a snapshot is encoded into
// the buffer the previous one left behind. It returns the payload size for
// the observability hooks.
func writeMetroCheckpoint(e *snap.Encoder, opts MetroOptions, done []MetroPoint, job int, barrier time.Duration, m *metroSim) (int, error) {
	e.Reset()
	w := snap.Save(e)
	walkMetroSweep(w, &opts, &done, &job, &barrier)
	m.Walk(w)
	if err := e.Err(); err != nil {
		return 0, err
	}
	return e.Len(), snap.WriteFile(opts.CheckpointPath, e, snap.Version)
}

// openMetroCheckpoint validates the container and loads everything up to (but
// not including) the trial snapshot, adopting the echoed Shards and ChurnFrac
// into *opts. size is the payload size, for the observability hooks.
func openMetroCheckpoint(opts *MetroOptions) (done []MetroPoint, job int, barrier time.Duration, d *snap.Decoder, size int, err error) {
	d, err = snap.ReadFile(opts.ResumeFrom, snap.Version)
	if err != nil {
		return nil, 0, 0, nil, 0, err
	}
	size = d.Remaining()
	walkMetroSweep(snap.Load(d), opts, &done, &job, &barrier)
	if err := d.Err(); err != nil {
		return nil, 0, 0, nil, 0, fmt.Errorf("%s: %w", opts.ResumeFrom, err)
	}
	return done, job, barrier, d, size, nil
}

// metroCheckpointed runs the sweep serially, restoring from ResumeFrom when
// set and writing a snapshot at every CheckpointEvery barrier. Trial seeds
// go through runner.DeriveSeed with the runner.Map job keys, so the rendered
// result is byte-identical to the parallel uncheckpointed sweep.
func metroCheckpointed(opts MetroOptions) (MetroResult, error) {
	out := MetroResult{Sectors: opts.Sectors, Duration: opts.Duration, Tech: opts.Tech}
	jobs := metroJobs(opts)
	start := 0
	ordinal := 0
	enc := snap.NewEncoder() // one buffer for every snapshot of the sweep
	var cur *metroSim
	var curAt time.Duration
	if opts.ResumeFrom != "" {
		done, job, barrier, d, size, err := openMetroCheckpoint(&opts)
		if err != nil {
			return MetroResult{}, err
		}
		if job >= len(jobs) {
			return MetroResult{}, fmt.Errorf("experiments: checkpoint job index %d outside a sweep of %d trials", job, len(jobs))
		}
		m := metroBuild(opts, jobs[job].mk, jobs[job].flows, runner.DeriveSeed(opts.Seed, jobs[job].key))
		m.Walk(snap.Load(d))
		if err := d.Done(); err != nil {
			return MetroResult{}, err
		}
		out.Points = append(out.Points, done...)
		start, cur, curAt = job, m, barrier
		opts.Obs.Emit(&obs.Event{At: barrier, Kind: obs.KindCheckpointRestore, Flow: -1, Run: m.seed,
			V0: float64(size), V1: barrier.Seconds()})
		if opts.Obs != nil {
			opts.Obs.Counter("ckpt_restores_total").Inc()
			opts.Obs.Gauge("ckpt_barrier_seconds").Set(barrier.Seconds())
		}
	}
	for j := start; j < len(jobs); j++ {
		m, at := cur, curAt
		cur, curAt = nil, 0
		if m == nil {
			m = metroBuild(opts, jobs[j].mk, jobs[j].flows, runner.DeriveSeed(opts.Seed, jobs[j].key))
		}
		if opts.CheckpointEvery > 0 {
			for next := at + opts.CheckpointEvery; next < opts.Duration; next += opts.CheckpointEvery {
				m.runTo(next)
				ordinal++
				size, err := writeMetroCheckpoint(enc, opts, out.Points, j, next, m)
				if err != nil {
					return MetroResult{}, err
				}
				opts.Obs.Emit(&obs.Event{At: next, Kind: obs.KindCheckpointWrite, Flow: -1, Run: m.seed,
					V0: float64(size), V1: float64(ordinal), V2: next.Seconds()})
				if opts.Obs != nil {
					opts.Obs.Counter("ckpt_writes_total").Inc()
					opts.Obs.Gauge("ckpt_snapshot_bytes").Set(float64(size))
					opts.Obs.Gauge("ckpt_barrier_seconds").Set(next.Seconds())
				}
				if opts.CheckpointHook != nil {
					opts.CheckpointHook(ordinal, opts.CheckpointPath)
				}
			}
		}
		m.runTo(opts.Duration)
		out.Points = append(out.Points, m.collect())
	}
	return out, nil
}
