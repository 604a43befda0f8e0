package experiments

import (
	"fmt"
	"time"

	"repro/internal/experiments/runner"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Checkpoint/resume for the metro sweep (DESIGN.md §15). A checkpoint file
// is one snap container holding: a config echo (cross-checked on resume — a
// snapshot must only ever be overlaid onto the topology it was taken from),
// the sweep points already completed, the in-flight trial's job index and
// barrier time, and the trial snapshot itself. Resume rebuilds the in-flight
// trial from the echoed configuration's seed, overlays the snapshot, and
// continues the sweep; the result is byte-identical to a run that was never
// interrupted.

// metroJob is one (flow count, protocol) cell of the serial checkpointed
// sweep. Key mirrors the runner.Map job keys exactly, so the derived trial
// seeds — and therefore the rendered points — match the parallel path.
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

// snapshotMetroPoint writes one completed sweep point.
func snapshotMetroPoint(e *snap.Encoder, p MetroPoint) {
	e.Str(p.Protocol)
	e.Int(p.Flows)
	e.F64(p.AggMbps)
	e.F64s(p.CellJain)
	e.F64s(p.DelayQuantiles)
	e.I64(p.Handovers)
	e.U64(p.CrossMsgs)
	p.Attrib.Snapshot(e)
	e.U32(uint32(len(p.CellAttrib)))
	for i := range p.CellAttrib {
		p.CellAttrib[i].Snapshot(e)
	}
}

// restoreMetroPoint is the inverse of snapshotMetroPoint. sectors bounds the
// per-cell attribution count before anything is allocated for it: a point
// never carries more cells than the sweep has.
func restoreMetroPoint(d *snap.Decoder, sectors int) MetroPoint {
	var p MetroPoint
	p.Protocol = d.Str()
	p.Flows = d.Int()
	p.AggMbps = d.F64()
	p.CellJain = d.F64s()
	p.DelayQuantiles = d.F64s()
	p.Handovers = d.I64()
	p.CrossMsgs = d.U64()
	p.Attrib.Restore(d)
	n := int(d.U32())
	if d.Err() != nil {
		return p
	}
	if n > sectors {
		d.Fail(fmt.Errorf("experiments: checkpointed point has %d attribution cells, the sweep has %d sectors", n, sectors))
		return p
	}
	if n > 0 {
		p.CellAttrib = make([]stats.Attribution, n)
		for i := range p.CellAttrib {
			p.CellAttrib[i].Restore(d)
			if d.Err() != nil {
				break
			}
		}
	}
	return p
}

// snapshotMetroConfig writes the config echo openMetroCheckpoint cross-checks
// on resume. The flow counts are laid out as Encoder.I64s would — count, then
// elements — without building the []int64 to hand it.
func snapshotMetroConfig(e *snap.Encoder, opts MetroOptions) {
	e.Tag("metro")
	e.Int(opts.Sectors)
	e.U32(uint32(len(opts.FlowCounts)))
	for _, n := range opts.FlowCounts {
		e.I64(int64(n))
	}
	e.Dur(opts.Duration)
	e.Int(opts.Shards)
	e.Int(int(opts.Tech))
	e.F64(opts.HandoverScale)
	e.F64(opts.ChurnFrac)
	e.I64(opts.Seed)
}

// writeMetroCheckpoint serializes the sweep state into e and atomically
// replaces the checkpoint file. The encoder is the sweep's own: it is Reset
// here, not replaced, so after the first barrier a snapshot is encoded into
// the buffer the previous one left behind. It returns the payload size for
// the observability hooks.
func writeMetroCheckpoint(e *snap.Encoder, opts MetroOptions, done []MetroPoint, job int, barrier time.Duration, m *metroSim) (int, error) {
	e.Reset()
	snapshotMetroConfig(e, opts)
	e.U32(uint32(len(done)))
	for _, p := range done {
		snapshotMetroPoint(e, p)
	}
	e.Int(job)
	e.Dur(barrier)
	m.Snapshot(e)
	if err := e.Err(); err != nil {
		return 0, err
	}
	return e.Len(), snap.WriteFile(opts.CheckpointPath, e, snap.Version)
}

// openMetroCheckpoint validates the container, cross-checks the config echo
// against opts, and decodes everything up to (but not including) the trial
// snapshot, leaving the decoder positioned for metroSim.Restore. Any
// mismatch fails closed before a single component is touched.
//
// The snapshot fixes the topology: the echoed Shards and ChurnFrac are
// adopted into *opts rather than cross-checked, so a resume never has to
// restate them (the CLI rejects -shards/-churn alongside -resume for the
// same reason). Everything else — sectors, flow counts, duration, tech,
// handover scale, seed — is identity-critical and must match exactly.
func openMetroCheckpoint(opts *MetroOptions) (done []MetroPoint, job int, barrier time.Duration, d *snap.Decoder, size int, err error) {
	d, err = snap.ReadFile(opts.ResumeFrom, snap.Version)
	if err != nil {
		return nil, 0, 0, nil, 0, err
	}
	size = d.Remaining()
	d.Expect("metro")
	sectors := d.Int()
	fc := d.I64s()
	dur := d.Dur()
	shards := d.Int()
	tech := d.Int()
	hs := d.F64()
	churn := d.F64()
	seed := d.I64()
	if err := d.Err(); err != nil {
		return nil, 0, 0, nil, 0, err
	}
	same := sectors == opts.Sectors && dur == opts.Duration &&
		tech == int(opts.Tech) && hs == opts.HandoverScale &&
		seed == opts.Seed && len(fc) == len(opts.FlowCounts)
	if same {
		for i, n := range fc {
			if int(n) != opts.FlowCounts[i] {
				same = false
				break
			}
		}
	}
	if !same {
		return nil, 0, 0, nil, 0, fmt.Errorf(
			"experiments: checkpoint %s was taken under a different metro configuration (snapshot: %d sectors, flows %v, %v, %d shards, tech %d, handover %v, churn %v, seed %d)",
			opts.ResumeFrom, sectors, fc, dur, shards, tech, hs, churn, seed)
	}
	opts.Shards = shards
	opts.ChurnFrac = churn
	// The counts below come from the file, and a well-framed file can still
	// be hostile: bound each by what this sweep could have written before
	// allocating for it, and stop at the first decode error.
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, 0, 0, nil, 0, err
	}
	if limit := len(metroJobs(*opts)); n > limit {
		return nil, 0, 0, nil, 0, fmt.Errorf("experiments: checkpoint claims %d completed points in a sweep of %d trials", n, limit)
	}
	for i := 0; i < n; i++ {
		p := restoreMetroPoint(d, opts.Sectors)
		if err := d.Err(); err != nil {
			return nil, 0, 0, nil, 0, err
		}
		done = append(done, p)
	}
	job = d.Int()
	barrier = d.Dur()
	if err := d.Err(); err != nil {
		return nil, 0, 0, nil, 0, err
	}
	if job < 0 || len(done) != job {
		return nil, 0, 0, nil, 0, fmt.Errorf("experiments: checkpoint has %d completed points but claims job index %d", len(done), job)
	}
	if barrier <= 0 || barrier >= opts.Duration {
		return nil, 0, 0, nil, 0, fmt.Errorf("experiments: checkpoint barrier %v outside (0, %v)", barrier, opts.Duration)
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
		m.Restore(d)
		if err := d.Err(); err != nil {
			return MetroResult{}, err
		}
		if err := d.Done(); err != nil {
			return MetroResult{}, err
		}
		out.Points = append(out.Points, done...)
		start, cur, curAt = job, m, barrier
		opts.Obs.Emit(obs.Event{At: barrier, Kind: obs.KindCheckpointRestore, Flow: -1, Run: m.seed,
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
				opts.Obs.Emit(obs.Event{At: next, Kind: obs.KindCheckpointWrite, Flow: -1, Run: m.seed,
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
