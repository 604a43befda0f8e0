package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The golden digests cover renders, not the bytes the exporters write. These
// pins digest the JSONL, Chrome trace_event and Prometheus exports of a
// serial traced chaos run: every canned fault plan against resilient Verus,
// stock Verus and Cubic, into a ring smaller than the run's event count, so
// the pinned trace is the wrapped tail and Seq counts every event emitted.

// obsPinRing is the pinned run's ring size, an eighth of its event count.
const obsPinRing = 1 << 13

// obsPinTrials are the pinned run's trials in run order.
func obsPinTrials() []TraceRun {
	const d = 6 * time.Second
	var trials []TraceRun
	for _, name := range faults.Names() {
		plan, err := faults.ByName(name, d)
		if err != nil {
			panic(err)
		}
		for _, mk := range []Maker{VerusResilientMaker(2), VerusMaker(2), CubicMaker()} {
			seed := int64(7001 + len(trials))
			trials = append(trials, TraceRun{
				Trace: cellTrace(cellular.Tech3G, faultMobility(name), 25, d, seed),
				Maker: mk, Flows: 4, Duration: d, Seed: seed, Faults: plan,
			})
		}
	}
	return trials
}

// obsExports holds one traced run's three exports and the tracer's ledger.
type obsExports struct {
	jsonl, chrome, prom []byte
	emitted, dropped    uint64
}

// tracedRun runs the pinned trials in order through run, each with a fresh
// TraceRun and the one observer, and exports what the observer holds.
func tracedRun(t *testing.T, run func(tr TraceRun, o *obs.Observer)) obsExports {
	t.Helper()
	o := obs.NewObserver(obs.NewTracer(obsPinRing), obs.NewRegistry())
	for _, tr := range obsPinTrials() {
		run(tr, o)
	}
	o.SyncTraceDropped()
	events := o.Tracer().Snapshot()
	export := func(write func(io.Writer) error) []byte {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	return obsExports{
		jsonl:   export(func(w io.Writer) error { return obs.WriteJSONL(w, events) }),
		chrome:  export(func(w io.Writer) error { return obs.WriteChromeTrace(w, events) }),
		prom:    export(func(w io.Writer) error { return obs.WritePrometheus(w, o.Registry()) }),
		emitted: o.Tracer().Emitted(),
		dropped: o.Tracer().Dropped(),
	}
}

func shaHex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestTracedExportsPinned holds the exports of the pinned run, made through
// TraceRun.Run, to the digests they had before dumbbell runs recorded
// through per-run fronts (obs.Observer.Local).
func TestTracedExportsPinned(t *testing.T) {
	got := tracedRun(t, func(tr TraceRun, o *obs.Observer) {
		tr.Obs = o
		tr.Run()
	})
	for _, p := range []struct {
		name, want string
		data       []byte
	}{
		{"JSONL", "d1424a04a73b741980e2a5a8b1daae019625c8d89d265b90488566d0b04eb983", got.jsonl},
		{"Chrome trace", "d3f4626b2c6617121c72566e757b3bc6d45e0015d0b060ffd19fb12d63ed0d2a", got.chrome},
		{"Prometheus", "3aba1bd5952bafd15768703de08cf2f51469be38a22bb95e4f51825f6bf0373d", got.prom},
	} {
		if h := shaHex(p.data); h != p.want {
			t.Errorf("%s export digests %s, want %s", p.name, h, p.want)
		}
	}
	if got.emitted != 100992 || got.dropped != 92800 {
		t.Errorf("tracer emitted %d and dropped %d events, want 100992 and 92800", got.emitted, got.dropped)
	}
}

// TestLocalRunsMatchSharedRuns runs the pinned trials through Dumbbell.Run,
// which records through a Local and flushes it, and through Build and a run
// of the built topology, which records on the shared observer: the exports,
// the tracer's ledger and the results must be equal. Each trial emits at
// least two full batches, and the ring wraps, so neither batching nor the
// wrap goes unexercised.
func TestLocalRunsMatchSharedRuns(t *testing.T) {
	var perTrial []uint64
	var localRes, sharedRes []RunResult
	local := tracedRun(t, func(tr TraceRun, o *obs.Observer) {
		before := o.Tracer().Emitted()
		tr.Obs = o
		localRes = append(localRes, tr.dumbbell().Run(tr.Duration))
		perTrial = append(perTrial, o.Tracer().Emitted()-before)
	})
	shared := tracedRun(t, func(tr TraceRun, o *obs.Observer) {
		tr.Obs = o
		d := tr.dumbbell().Build()
		d.Run(tr.Duration)
		sharedRes = append(sharedRes, collect(d, tr.Duration))
	})
	for _, p := range []struct {
		name     string
		got, ref []byte
	}{
		{"JSONL", local.jsonl, shared.jsonl},
		{"Chrome trace", local.chrome, shared.chrome},
		{"Prometheus", local.prom, shared.prom},
	} {
		if !bytes.Equal(p.got, p.ref) {
			t.Errorf("%s export through Locals digests %s, through the shared observer %s", p.name, shaHex(p.got), shaHex(p.ref))
		}
	}
	if local.emitted != shared.emitted || local.dropped != shared.dropped {
		t.Errorf("through Locals the tracer emitted %d and dropped %d, through the shared observer %d and %d",
			local.emitted, local.dropped, shared.emitted, shared.dropped)
	}
	if !reflect.DeepEqual(localRes, sharedRes) {
		t.Error("the runs through Locals collected other results than the runs on the shared observer")
	}
	for i, n := range perTrial {
		if n < 2*obs.LocalBatch {
			t.Errorf("trial %d emitted %d events, fewer than two full batches of %d", i, n, obs.LocalBatch)
		}
	}
	if local.dropped == 0 {
		t.Errorf("the ring of %d slots never wrapped", obsPinRing)
	}
}
