package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/snap"
)

// Checkpoint/resume contract (a) of ISSUE 9: run-straight ≡
// checkpoint-then-resume, byte-identical renders, on the single-heap
// reference and sharded-{1,4,8} executors, resumed from multiple distinct
// barrier checkpoints. The scale is deliberately small — the property does
// not depend on it.

// ckptOpts is the base sweep every checkpoint test runs.
func ckptOpts(shards int, churn float64) MetroOptions {
	return MetroOptions{
		Sectors: 4, FlowCounts: []int{16}, Duration: 2 * time.Second,
		Shards: shards, Tech: cellular.TechLTE, HandoverScale: 0.05,
		ChurnFrac: churn, Seed: 123, Parallel: 1,
	}
}

// runCheckpointed runs the sweep with checkpointing at `every`, copying the
// checkpoint file aside at each write so tests can resume from any barrier.
func runCheckpointed(t *testing.T, opts MetroOptions, every time.Duration) (render string, copies []string) {
	t.Helper()
	dir := t.TempDir()
	opts.CheckpointPath = filepath.Join(dir, "snap.bin")
	opts.CheckpointEvery = every
	opts.CheckpointHook = func(ordinal int, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("checkpoint %d unreadable: %v", ordinal, err)
		}
		cp := filepath.Join(dir, fmt.Sprintf("snap-%03d.bin", ordinal))
		if err := os.WriteFile(cp, b, 0o644); err != nil {
			t.Fatal(err)
		}
		copies = append(copies, cp)
	}
	res, err := Metro(opts)
	if err != nil {
		t.Fatalf("checkpointed sweep: %v", err)
	}
	return res.Render(), copies
}

func TestMetroCheckpointResumeEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		shards  int
		churn   float64
		every   time.Duration
		resumes int // how many saved barriers to resume from
	}{
		{"singleheap", 0, 0, 500 * time.Millisecond, 3},
		{"sharded1", 1, 0, 600 * time.Millisecond, 1},
		{"sharded4", 4, 0, 500 * time.Millisecond, 3},
		{"sharded8", 8, 0, 700 * time.Millisecond, 1},
		{"sharded4-churn", 4, 0.5, 500 * time.Millisecond, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := ckptOpts(tc.shards, tc.churn)
			straight, err := Metro(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := straight.Render()

			got, copies := runCheckpointed(t, opts, tc.every)
			if got != want {
				t.Errorf("checkpointed sweep render diverges from straight run:\n-- straight --\n%s\n-- checkpointed --\n%s", want, got)
			}
			if len(copies) < 3 {
				t.Fatalf("sweep wrote %d checkpoints, want >= 3 distinct barriers", len(copies))
			}

			// Resume from distinct barriers: the first checkpoint, the last,
			// and one in the middle.
			picks := []int{0, len(copies) / 2, len(copies) - 1}[:tc.resumes]
			if tc.resumes == 1 {
				picks = []int{len(copies) / 2}
			}
			for _, i := range picks {
				rs := opts
				rs.ResumeFrom = copies[i]
				res, err := Metro(rs)
				if err != nil {
					t.Fatalf("resume from %s: %v", copies[i], err)
				}
				if r := res.Render(); r != want {
					t.Errorf("resume from checkpoint %d diverges from straight run:\n-- straight --\n%s\n-- resumed --\n%s", i+1, want, r)
				}
			}
		})
	}
}

// TestMetroCheckpointPoolConservation is the metro side of the pool
// property: the mesh-wide PoolStats survive snapshot→restore exactly, so a
// resumed trial keeps the leak-conservation identity the pooled packet path
// is audited by.
func TestMetroCheckpointPoolConservation(t *testing.T) {
	opts := ckptOpts(4, 0)
	m := metroBuild(opts, metroProtocols()[0], 16, 123)
	m.runTo(time.Second)
	before := m.mesh.PoolStats()
	if before.Live() == 0 {
		t.Fatal("mid-run barrier has no live packets; the property would be vacuous")
	}
	e := snap.NewEncoder()
	m.Walk(snap.Save(e))
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	r := metroBuild(opts, metroProtocols()[0], 16, 123)
	r.Walk(snap.Load(d))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if after := r.mesh.PoolStats(); after != before {
		t.Fatalf("mesh pool stats not conserved through restore: %+v -> %+v", before, after)
	}
	m.runTo(opts.Duration)
	r.runTo(opts.Duration)
	if got, want := r.mesh.PoolStats(), m.mesh.PoolStats(); got != want {
		t.Fatalf("post-restore mesh pool stats diverge: restored %+v, straight %+v", got, want)
	}
	if netsim.PoolDebug {
		t.Log("pooldebug poisoning armed through restore")
	}
}

// TestCheckpointWalkRoundTrips: each component has one walk for both
// directions, so save → load onto a rebuild → save again is byte-identical.
// It runs over the golden dumbbell, a churned two-shard trial of each metro
// protocol, and a whole sweep file, and requires every component kind's
// section tag among the bytes it compared.
//
// The pending events are the exception the walk documents: they are a set,
// written in the order heap and lanes happen to hold them, and a load
// re-sifts. So the bytes ahead of the heap section must match at once, the
// heap section must keep its size, and a second load and save must reproduce
// the first one's bytes whole.
func TestCheckpointWalkRoundTrips(t *testing.T) {
	tagBytes := func(tag string) []byte {
		e := snap.NewEncoder()
		snap.Save(e).Tag(tag)
		section, _ := e.Encode(snap.Version)
		return section[8 : len(section)-4]
	}
	var seen []byte
	compare := func(name string, first, second, third []byte) {
		t.Helper()
		heap := bytes.Index(first, tagBytes("meshheaps"))
		if heap < 0 {
			heap = bytes.Index(first, tagBytes("heap"))
		}
		if heap < 0 {
			t.Fatalf("%s: no heap section", name)
		}
		if len(second) != len(first) || !bytes.Equal(second[:heap], first[:heap]) {
			t.Errorf("%s: components saved after a load differ from the first save (%d vs %d bytes)", name, len(second), len(first))
		}
		if !bytes.Equal(third, second) {
			t.Errorf("%s: a second load and save moved the bytes again", name)
		}
		seen = append(seen, first...)
	}
	roundTrip := func(name string, orig snap.Walkable, rebuild func() snap.Walkable) {
		t.Helper()
		save := func(c snap.Walkable) []byte {
			e := snap.NewEncoder()
			c.Walk(snap.Save(e))
			blob, err := e.Encode(snap.Version)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return blob
		}
		reload := func(blob []byte) []byte {
			d, err := snap.Decode(blob, snap.Version)
			if err != nil {
				t.Fatal(err)
			}
			loaded := rebuild()
			loaded.Walk(snap.Load(d))
			if err := d.Done(); err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			return save(loaded)
		}
		first := save(orig)
		second := reload(first)
		compare(name, first, second, reload(second))
	}

	d, _ := buildGoldenDumbbell()
	d.Run(2890 * time.Millisecond)
	roundTrip("dumbbell", d, func() snap.Walkable { r, _ := buildGoldenDumbbell(); return r })

	opts := ckptOpts(2, 0.5)
	for _, mk := range metroProtocols() {
		m := metroBuild(opts, mk, 16, 123)
		m.runTo(time.Second)
		roundTrip("metro "+mk.Name, m, func() snap.Walkable { return metroBuild(opts, mk, 16, 123) })
	}

	// The sweep file: open the last checkpoint (two trials done, the third in
	// flight), load it onto a rebuild, and write it back out.
	_, copies := runCheckpointed(t, opts, 500*time.Millisecond)
	rewrite := func(path string) string {
		rs := opts
		rs.ResumeFrom = path
		done, job, barrier, dec, _, err := openMetroCheckpoint(&rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(done) != 2 || len(done[0].CellAttrib) != opts.Sectors {
			t.Fatalf("checkpoint carries %d completed points; the sweep-file walk would go untested", len(done))
		}
		jobs := metroJobs(rs)
		m := metroBuild(rs, jobs[job].mk, jobs[job].flows, runner.DeriveSeed(rs.Seed, jobs[job].key))
		m.Walk(snap.Load(dec))
		if err := dec.Done(); err != nil {
			t.Fatal(err)
		}
		rs.CheckpointPath = filepath.Join(t.TempDir(), "again.bin")
		if _, err := writeMetroCheckpoint(snap.NewEncoder(), rs, done, job, barrier, m); err != nil {
			t.Fatal(err)
		}
		return rs.CheckpointPath
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := copies[len(copies)-1]
	second := rewrite(first)
	compare("sweep file", read(first), read(second), read(rewrite(second)))

	for _, tag := range []string{
		"newreno", "cubic", "vegas", "verus", "profile", "sprout",
		"summary", "tput", "wmean", "attrib", "flowmetrics", "source", "cbr",
		"droptail", "red", "linkcore", "fixedlink", "tracelink", "faultlink",
		"simcore", "heap", "mesh", "meshheaps", "dumbbell", "metrotrial", "metro",
	} {
		if !bytes.Contains(seen, tagBytes(tag)) {
			t.Errorf("no round trip covered a %q section", tag)
		}
	}
}

// TestMetroCheckpointFailClosed pins the fail-closed contract: a truncated,
// corrupted, wrong-version, mismatched-config, or absent snapshot file must
// fail the resume with an error before any trial state is touched — never a
// partial resume. The hostile-* files are well framed (valid CRC, matching
// config echo) but carry element counts no sweep could have written; they
// must fail before anything is allocated for those counts.
func TestMetroCheckpointFailClosed(t *testing.T) {
	opts := ckptOpts(4, 0)
	_, copies := runCheckpointed(t, opts, 500*time.Millisecond)
	valid, err := os.ReadFile(copies[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	truncated := write("truncated.bin", valid[:len(valid)-10])
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0x40
	corruptedPath := write("corrupted.bin", corrupted)
	garbage := write("garbage.bin", []byte("not a snapshot at all"))

	wrongVer := filepath.Join(dir, "wrongver.bin")
	e := snap.NewEncoder()
	snap.Save(e).Tag("metro")
	if err := snap.WriteFile(wrongVer, e, snap.Version+1); err != nil {
		t.Fatal(err)
	}

	// hostile writes a checkpoint that echoes opts faithfully and then claims
	// `points` completed points. With cells >= 0 the first point follows,
	// well formed up to its CellAttrib count (the field order is
	// walkMetroPoint's), which claims `cells`.
	hostile := func(name string, points uint32, cells int64) string {
		h := snap.NewEncoder()
		w := snap.Save(h)
		walkMetroConfig(w, &opts)
		w.Len(int(points))
		if cells >= 0 {
			p := MetroPoint{Protocol: "verus", Flows: 16}
			w.Str(&p.Protocol)
			w.Int(&p.Flows)
			w.F64(&p.AggMbps)
			w.F64s(&p.CellJain)
			w.F64s(&p.DelayQuantiles)
			w.I64(&p.Handovers)
			w.U64(&p.CrossMsgs)
			p.Attrib.Walk(w)
			w.Len(int(cells))
		}
		path := filepath.Join(dir, name+".bin")
		if err := snap.WriteFile(path, h, snap.Version); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hostilePoints := hostile("hostile-points", 20_000_000, -1)
	hostilePointsMax := hostile("hostile-points-max", math.MaxUint32, -1)
	hostileCells := hostile("hostile-cells", 1, 20_000_000)
	hostileCellsMax := hostile("hostile-cells-max", 1, math.MaxUint32)

	// echo writes a checkpoint through walkMetroSweep whose config echo
	// carries a Shards or ChurnFrac no sweep accepts. A resume adopts both
	// from the file, so the load itself must refuse them.
	echo := func(name string, mut func(*MetroOptions)) string {
		o := opts
		mut(&o)
		var done []MetroPoint
		job, barrier := 0, 500*time.Millisecond
		h := snap.NewEncoder()
		walkMetroSweep(snap.Save(h), &o, &done, &job, &barrier)
		path := filepath.Join(dir, name+".bin")
		if err := snap.WriteFile(path, h, snap.Version); err != nil {
			t.Fatal(err)
		}
		return path
	}
	churnHigh := echo("churn-high", func(o *MetroOptions) { o.ChurnFrac = 2 })
	churnNeg := echo("churn-neg", func(o *MetroOptions) { o.ChurnFrac = -1 })
	churnNaN := echo("churn-nan", func(o *MetroOptions) { o.ChurnFrac = math.NaN() })
	shardsNeg := echo("shards-neg", func(o *MetroOptions) { o.Shards = -1 })

	cases := []struct {
		name string
		mut  func(*MetroOptions)
		want string
	}{
		{"hostile-points-count", func(o *MetroOptions) { o.ResumeFrom = hostilePoints }, "completed points"},
		{"hostile-points-count-maxuint32", func(o *MetroOptions) { o.ResumeFrom = hostilePointsMax }, "completed points"},
		{"hostile-cellattrib-count", func(o *MetroOptions) { o.ResumeFrom = hostileCells }, "attribution cells"},
		{"hostile-cellattrib-count-maxuint32", func(o *MetroOptions) { o.ResumeFrom = hostileCellsMax }, "attribution cells"},
		{"hostile-echo-churn-2", func(o *MetroOptions) { o.ResumeFrom = churnHigh }, "churn fraction"},
		{"hostile-echo-churn-neg", func(o *MetroOptions) { o.ResumeFrom = churnNeg }, "churn fraction"},
		{"hostile-echo-churn-nan", func(o *MetroOptions) { o.ResumeFrom = churnNaN }, "churn fraction"},
		{"hostile-echo-shards-neg", func(o *MetroOptions) { o.ResumeFrom = shardsNeg }, "shard count"},
		{"truncated", func(o *MetroOptions) { o.ResumeFrom = truncated }, ""},
		{"corrupted", func(o *MetroOptions) { o.ResumeFrom = corruptedPath }, ""},
		{"garbage", func(o *MetroOptions) { o.ResumeFrom = garbage }, ""},
		{"missing", func(o *MetroOptions) { o.ResumeFrom = filepath.Join(dir, "nope.bin") }, ""},
		{"wrong-version", func(o *MetroOptions) { o.ResumeFrom = wrongVer }, "version"},
		{"config-mismatch-seed", func(o *MetroOptions) { o.ResumeFrom = copies[0]; o.Seed = 999 }, "different metro configuration"},
		{"config-mismatch-duration", func(o *MetroOptions) { o.ResumeFrom = copies[0]; o.Duration = 3 * time.Second }, "different metro configuration"},
		{"config-mismatch-sectors", func(o *MetroOptions) { o.ResumeFrom = copies[0]; o.Sectors = 8 }, "different metro configuration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ckptOpts(4, 0)
			tc.mut(&o)
			var res MetroResult
			var err error
			allocated := allocBytes(func() { res, err = Metro(o) })
			if err == nil {
				t.Fatal("resume from a bad snapshot succeeded")
			}
			// No rejected file here is over a few hundred KB, so nothing that
			// refuses one has cause to allocate more than a small multiple of
			// that — least of all a count read out of the file.
			if allocated > 4<<20 {
				t.Fatalf("rejecting the snapshot allocated %d bytes", allocated)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if len(res.Points) != 0 {
				t.Fatalf("failed resume still produced %d points — partial resume", len(res.Points))
			}
		})
	}
}

// allocBytes returns the bytes f allocated (process-wide TotalAlloc, so only
// meaningful from a test that is not running in parallel with others).
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ckptTrial builds a metro trial of the given size on the checkpoint tests'
// base options, runs it to a mid-run barrier, and returns it with options
// whose CheckpointPath points into a fresh temp directory.
func ckptTrial(tb testing.TB, flows int, seed int64, barrier time.Duration) (MetroOptions, *metroSim) {
	tb.Helper()
	opts := ckptOpts(4, 0)
	opts.FlowCounts = []int{flows}
	opts.CheckpointPath = filepath.Join(tb.TempDir(), "snap.bin")
	m := metroBuild(opts, metroProtocols()[0], flows, seed)
	m.runTo(barrier)
	return opts, m
}

// TestMetroCheckpointWriteReusesBuffer is the allocation guard behind the
// benchmark: on one encoder, the second and later snapshots allocate nothing
// proportional to the payload.
func TestMetroCheckpointWriteReusesBuffer(t *testing.T) {
	opts, m := ckptTrial(t, 256, 123, time.Second)
	e := snap.NewEncoder()
	size, err := writeMetroCheckpoint(e, opts, nil, 0, time.Second, m)
	if err != nil {
		t.Fatal(err)
	}
	if size < 200<<10 {
		t.Fatalf("payload is %d bytes; the guard needs a multi-hundred-KB snapshot to mean anything", size)
	}
	const rounds = 4
	total := allocBytes(func() {
		for i := 0; i < rounds; i++ {
			if _, err := writeMetroCheckpoint(e, opts, nil, 0, time.Second, m); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := total / rounds; per >= 64<<10 {
		t.Fatalf("a repeat snapshot of %d bytes allocated %d bytes; the reused encoder should keep it under 64 KB", size, per)
	}
	// What is left above is the file write. The walk itself, saving into the
	// warmed encoder, allocates nothing: no scratch slices, no boxed values,
	// and no validation message, which only a failing load may build.
	w := snap.Save(e)
	if n := testing.AllocsPerRun(4, func() {
		e.Reset()
		walkMetroSweep(w, &opts, new([]MetroPoint), new(int), new(time.Duration))
		m.Walk(w)
	}); n != 0 || e.Err() != nil {
		t.Fatalf("saving the %d-flow trial allocated %v times (err %v), want 0", m.flows, n, e.Err())
	}
}

// TestMetroCheckpointFileEqualsEncode pins the streamed framing: for a real
// mid-run trial, the file WriteFile leaves behind is Encode's output byte
// for byte.
func TestMetroCheckpointFileEqualsEncode(t *testing.T) {
	opts, m := ckptTrial(t, 16, 123, time.Second)
	e := snap.NewEncoder()
	if _, err := writeMetroCheckpoint(e, opts, nil, 0, time.Second, m); err != nil {
		t.Fatal(err)
	}
	want, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("file on disk (%d bytes) differs from Encode (%d bytes)", len(got), len(want))
	}
}

// TestMetroCheckpointResetLeavesNoResidue pins encoder reuse: after
// snapshotting trial A — and again after a Fail — a Reset encoder writes
// trial B exactly as a fresh encoder does.
func TestMetroCheckpointResetLeavesNoResidue(t *testing.T) {
	optsA, a := ckptTrial(t, 32, 123, time.Second)
	optsB, b := ckptTrial(t, 16, 456, 500*time.Millisecond)
	write := func(e *snap.Encoder, opts MetroOptions, m *metroSim, at time.Duration) string {
		t.Helper()
		if _, err := writeMetroCheckpoint(e, opts, nil, 0, at, m); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(file)
	}
	want := write(snap.NewEncoder(), optsB, b, 500*time.Millisecond)

	reused := snap.NewEncoder()
	write(reused, optsA, a, time.Second)
	if got := write(reused, optsB, b, 500*time.Millisecond); got != want {
		t.Fatal("encoder reused after trial A writes trial B differently from a fresh encoder")
	}

	reused.Reset()
	snap.Save(reused).Tag("abandoned")
	reused.Fail(os.ErrInvalid)
	if got := write(reused, optsB, b, 500*time.Millisecond); got != want {
		t.Fatal("encoder reused after a Fail writes trial B differently from a fresh encoder")
	}
}

// TestMetroCheckpointResumeAdoptsTopology pins the "the snapshot fixes the
// topology" contract: Shards and ChurnFrac come from the checkpoint file on
// resume, so a resume launched without restating them still reproduces the
// interrupted run byte-for-byte.
func TestMetroCheckpointResumeAdoptsTopology(t *testing.T) {
	opts := ckptOpts(4, 0.5)
	straight, err := Metro(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := straight.Render()
	_, copies := runCheckpointed(t, opts, 600*time.Millisecond)

	rs := ckptOpts(0, 0) // wrong shards/churn on purpose: the file overrides
	rs.ResumeFrom = copies[len(copies)/2]
	res, err := Metro(rs)
	if err != nil {
		t.Fatalf("resume without restating shards/churn: %v", err)
	}
	if r := res.Render(); r != want {
		t.Errorf("resume with adopted topology diverges from straight run:\n-- straight --\n%s\n-- resumed --\n%s", want, r)
	}
}

// TestMetroCheckpointOptionValidation covers the option-combination surface
// Metro rejects before running anything.
func TestMetroCheckpointOptionValidation(t *testing.T) {
	bad := []func(*MetroOptions){
		func(o *MetroOptions) { o.CheckpointEvery = -time.Second },
		func(o *MetroOptions) { o.CheckpointEvery = time.Second }, // no path
		func(o *MetroOptions) { o.CheckpointPath = "x.bin" },      // no interval
	}
	for i, mut := range bad {
		o := ckptOpts(0, 0)
		mut(&o)
		if _, err := Metro(o); err == nil {
			t.Errorf("case %d: invalid checkpoint options accepted", i)
		}
	}
}

// TestMetroCheckpointObservability pins satellite 3: a checkpointed +
// resumed sweep emits CheckpointWrite/CheckpointRestore events that survive
// the strict exporter re-parsers, and registers the checkpoint metrics.
func TestMetroCheckpointObservability(t *testing.T) {
	// A small instrumented sweep emits ~200k events; size the ring to hold
	// the checkpointed run plus the resume so barrier events are not evicted.
	o := obs.NewObserver(obs.NewTracer(1<<19), obs.NewRegistry())
	opts := ckptOpts(0, 0)
	opts.Obs = o
	_, copies := runCheckpointed(t, opts, 500*time.Millisecond)
	rs := opts
	rs.ResumeFrom = copies[len(copies)/2]
	if _, err := Metro(rs); err != nil {
		t.Fatal(err)
	}
	var writes, restores int
	for _, ev := range o.Tracer().Snapshot() {
		switch ev.Kind {
		case obs.KindCheckpointWrite:
			writes++
			if ev.V0 <= 0 || ev.V1 <= 0 || ev.V2 <= 0 {
				t.Errorf("ckpt.write event with non-positive fields: %+v", ev)
			}
		case obs.KindCheckpointRestore:
			restores++
			if ev.V0 <= 0 || ev.V1 <= 0 {
				t.Errorf("ckpt.restore event with non-positive fields: %+v", ev)
			}
		}
	}
	if writes == 0 || restores == 0 {
		t.Fatalf("tracer saw %d ckpt.write and %d ckpt.restore events; instrumentation is not wired", writes, restores)
	}

	// Strict re-parse of every export with the new kinds present.
	events := o.Tracer().Snapshot()
	var jsonl strings.Builder
	if err := obs.WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatalf("JSONL with checkpoint kinds does not re-parse: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("JSONL round trip lost events: %d != %d", len(back), len(events))
	}
	var chrome strings.Builder
	if err := obs.WriteChromeTrace(&chrome, events); err != nil {
		t.Fatalf("Chrome trace with checkpoint kinds: %v", err)
	}
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, o.Registry()); err != nil {
		t.Fatal(err)
	}
	pm, err := obs.ParsePrometheus(strings.NewReader(prom.String()))
	if err != nil {
		t.Fatalf("exposition with checkpoint metrics does not re-parse: %v", err)
	}
	for _, name := range []string{"ckpt_writes_total", "ckpt_restores_total", "ckpt_snapshot_bytes", "ckpt_barrier_seconds"} {
		if _, ok := pm.Values[name]; !ok {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}
