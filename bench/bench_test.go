package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps every workload's structure — all plans, all protocols,
// checkpoints and resumes, cross-cell handovers — at a scale where the whole
// file runs in seconds.
var tinySizes = sizes{
	SingleSeeds: 2, SingleSimS: 5,
	FaultReps: 1, FaultSimS: 8, ObsRing: 1 << 12,
	MetroSeeds: 2, MetroFlows: 64, MetroSectors: 4, MetroSimS: 0.6, MetroChurn: 0.3, MetroHandover: 0.02, MetroShards: 2,
	CkptEveryS: 0.25, Resumes: 2,
}

func tinyConfig(t *testing.T) config {
	return config{
		seed: 7, seconds: 0, sizes: tinySizes, nproc: runtime.NumCPU(), tmp: t.TempDir(),
		minSetups: 1, minReps: 2, rungBatches: 1, rungBatch: 200 * time.Microsecond,
	}
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecWithinLimits holds BENCHMARK.json to the driver's contract.
func TestSpecWithinLimits(t *testing.T) {
	sp := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want the benchmark's own directory only", sp.Paths)
	}
	if n := len(sp.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q: at most 200 characters, no absolute path, no ..", c)
		}
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloads))
	}
	setup := false
	for _, d := range sp.EndToEnd {
		use(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	for _, d := range sp.PerLayer {
		use(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

func wantMetrics(t *testing.T, what string, got map[string]value, decls []metricDecl, omit map[string]bool) {
	t.Helper()
	for _, d := range decls {
		if _, ok := got[d.Name]; !ok && !omit[d.Name] {
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		}
	}
	if want := len(decls) - len(omit); len(got) != want {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), want)
	}
}

// TestEveryWorkloadEmitsEveryEndToEndMetric runs each workload untraced at
// tiny scale through the same path the driver takes.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	sp := mustSpec(t)
	for _, w := range workloads {
		res, err := measure(w, tinyConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		res.conform(sp.EndToEnd, nil)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %+v", w.name, res.Failed, res.Attempted, res.Checks)
		}
		wantMetrics(t, w.name, res.Metrics, sp.EndToEnd, nil)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}
		if res.RenderSHA256 == "" || res.Provenance.GoVersion == "" || res.Provenance.Sizes != tinySizes {
			t.Errorf("%s: provenance incomplete: %+v", w.name, res.Provenance)
		}
	}
}

// TestTracedPassEmitsEveryPerLayerMetric runs the traced pass of every
// workload; the rungs do not depend on the workload and are run once.
func TestTracedPassEmitsEveryPerLayerMetric(t *testing.T) {
	sp := mustSpec(t)
	cfg := tinyConfig(t)
	omit := map[string]bool{}
	if cfg.nproc < 2 {
		omit = parallelOnly
	}
	rungs := map[string]float64{}
	if err := runRungs(cfg, rungs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := tracedWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range rungs {
			res.set(k, v)
		}
		res.conform(sp.PerLayer, omit)
		if !res.Correct {
			t.Errorf("%s: %d of %d checks failed: %+v", w.name, res.Failed, res.Attempted, res.Checks)
		}
		wantMetrics(t, w.name+" traced", res.Metrics, sp.PerLayer, omit)
		if res.Metrics["trace_overhead"].Value <= 0 {
			t.Errorf("%s: trace_overhead = %v", w.name, res.Metrics["trace_overhead"].Value)
		}
		if _, err := os.Stat(filepath.Join(outDir(), w.name+".spans.jsonl")); err != nil {
			t.Errorf("%s: spans not written: %v", w.name, err)
		}
	}
}

// TestDegradedAtOneCPU simulates nproc=1: no core-scaling figure may appear.
func TestDegradedAtOneCPU(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.nproc = 1
	w, _ := workloadByName("metro_sharded")
	res, err := measure(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "nproc<shards" {
		t.Errorf("degraded = %q, want nproc<shards", res.Degraded)
	}
	if _, ok := res.Info["shard_speedup"]; ok {
		t.Error("shard_speedup emitted at nproc=1")
	}
	if !res.Correct {
		t.Errorf("degraded run must still be correct: %+v", res.Checks)
	}
	out := map[string]float64{}
	if err := parallelRungs(cfg, out); err != nil {
		t.Fatal(err)
	}
	for name := range parallelOnly {
		if _, ok := out[name]; ok {
			t.Errorf("%s emitted at nproc=1", name)
		}
	}
	if _, ok := out["netsim.mesh.window_ns_s1"]; !ok {
		t.Error("netsim.mesh.window_ns_s1 missing at nproc=1")
	}
}

func fakeResult(sp *spec, workload string, scale float64) *result {
	r := &result{lastLine: lastLine{Correct: true, Attempted: 4, Metrics: map[string]value{}},
		Workload: workload, RenderSHA256: "abc", Info: map[string]float64{"sim_goodput_mbps": 100}}
	for _, d := range sp.EndToEnd {
		r.Metrics[d.Name] = value{Value: 100, Unit: d.Unit}
	}
	// Worsen one bounded timing metric by `scale` in its bad direction.
	r.Metrics["sim_s_per_wall_s"] = value{Value: 100 / scale, Unit: "1/s"}
	return r
}

// TestDiffAndRepeatExitCodes drives the comparator through files, as the
// command line does.
func TestDiffAndRepeatExitCodes(t *testing.T) {
	sp := mustSpec(t)
	dir := t.TempDir()
	write := func(name string, rs ...*result) string {
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", fakeResult(sp, "single_flow", 1))
	same := write("same.json", fakeResult(sp, "single_flow", 1.01))
	slow := write("slow.json", fakeResult(sp, "single_flow", 1.5))
	fast := write("fast.json", fakeResult(sp, "single_flow", 0.5))
	failing := fakeResult(sp, "single_flow", 1)
	failing.Failed, failing.Correct = 1, false
	bad := write("bad.json", failing)
	drift := fakeResult(sp, "single_flow", 1)
	drift.Info["sim_goodput_mbps"] = 100.0001
	drifted := write("drift.json", drift)
	changed := fakeResult(sp, "single_flow", 1)
	changed.Info["sim_goodput_mbps"] = 101
	outcome := write("outcome.json", changed)
	empty := write("empty.json")

	for _, c := range []struct {
		mode, a, b string
		want       int
	}{
		{"diff", base, same, 0},
		{"diff", base, slow, 1},
		{"diff", base, fast, 0}, // an improvement is not a regression
		{"diff", base, bad, 1},  // higher fail_frac
		{"diff", base, empty, 1},
		{"diff", base, drifted, 0}, // within the simulated outcomes' 0.1 %
		{"diff", base, outcome, 1}, // a change may not move a simulated outcome
		{"repeat", base, same, 0},
		{"repeat", base, fast, 1},    // two runs of one commit must agree both ways
		{"repeat", base, drifted, 1}, // exact metrics agree exactly
		{"repeat", base, filepath.Join(dir, "absent.json"), 2},
	} {
		if got := compareMain(c.mode, []string{c.a, c.b}); got != c.want {
			var buf bytes.Buffer
			if a, err := readResultFile(c.a); err == nil {
				if b, err := readResultFile(c.b); err == nil {
					compare(&buf, sp, c.mode, a, b)
				}
			}
			t.Errorf("%s %s %s: exit %d, want %d\n%s", c.mode, filepath.Base(c.a), filepath.Base(c.b), got, c.want, buf.String())
		}
	}
}
