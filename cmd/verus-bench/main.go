// Command verus-bench regenerates every table and figure of the Verus paper
// (Zaki et al., SIGCOMM 2015) and prints the same rows/series the paper
// reports. Use -quick for a reduced-scale pass (seconds per experiment) or
// the default full scale (the paper's durations; minutes in total).
//
// Independent trials (scenarios × protocols × reps) run on a worker pool
// sized by -parallel; output is byte-identical at every setting, and
// -parallel 1 reproduces the serial path.
//
// Performance is measured by the committed benchmark (bash bench/run.sh),
// not here; -cpuprofile/-memprofile write pprof profiles of the run for
// local hot-path work.
//
// -faults runs the canned fault-injection scenarios (internal/faults)
// against the hardened Verus and the baselines: pass a scenario name
// (tunnel-outage, highway-handover, city-loss) or "all". With -faults set
// and no -only, only the fault scenarios run.
//
// -metro runs the city-scale multi-cell sweep (internal/experiments.Metro):
// N cell sectors on a sharded event mesh, swept over {10k, 40k, 100k}
// concurrent Verus/Cubic/Sprout flows, rendering per-cell fairness and
// aggregate delay CDFs. It is opt-in (also reachable as -only metro) because
// the full sweep runs for minutes; -quick reduces it to one 64-flow point.
// -shards picks the mesh executor (0 = single-heap reference); -churn sets
// the fraction of users that arrive and depart mid-run (default 0.3 at full
// scale, 0 on -quick); every setting renders byte-identical output.
//
// -checkpoint writes a versioned, CRC-trailed snapshot of the in-flight
// metro trial to a file at every -checkpoint-every of virtual time (each
// write lands at a quiescent mesh barrier and atomically replaces the file),
// and -resume restores an interrupted sweep from such a file and runs it to
// completion — rendering byte-identical output to a run that was never
// interrupted. Both require -metro; -resume rejects -shards/-churn because
// the snapshot fixes the topology, and a truncated, corrupted, wrong-version,
// or mismatched-config snapshot fails closed with exit 2 before any state is
// touched. -crash-after N SIGKILLs the process right after the Nth
// checkpoint write; it exists for the crash-injection harness, which kills a
// child mid-sweep and verifies the resumed digest.
//
// -trace and -metrics attach the internal/obs observability layer: -trace
// writes the virtual-time event stream as JSONL (verus-obs chrome converts
// it to Chrome trace_event format for chrome://tracing or Perfetto), and
// -metrics writes the metrics registry as Prometheus text exposition.
// Observability is strictly passive —
// enabling it never changes a rendered table (the golden-digest tests lock
// this in). Output paths are validated up front, before any experiment
// runs.
//
// Usage:
//
//	verus-bench [-quick] [-only fig8,table1,...] [-faults name|all] [-seed N]
//	            [-metro] [-shards N] [-churn F] [-parallel N]
//	            [-checkpoint snap.bin] [-checkpoint-every D] [-resume snap.bin]
//	            [-crash-after N]
//	            [-trace out.jsonl] [-metrics out.prom]
//	            [-tracecap N]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
)

// figureIDs lists every -only id, in run order.
func figureIDs() []string {
	ids := make([]string, len(experiments.Figures))
	for i, f := range experiments.Figures {
		ids[i] = f.ID
	}
	return ids
}

// parseFaults validates the -faults flag value into the scenario list to
// run: "" selects nothing, "all" selects every canned scenario, and a
// single name selects that one. Unknown names error with the valid set.
func parseFaults(s string) ([]string, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch s {
	case "":
		return nil, nil
	case "all":
		return faults.Names(), nil
	}
	if !slices.Contains(faults.Names(), s) {
		return nil, fmt.Errorf("unknown fault scenario %q (valid: %v)", s, faults.Names())
	}
	return []string{s}, nil
}

// parseOnly parses a -only flag value into the selected id set, rejecting
// unknown ids (the first unknown one in input order is reported). An empty
// value selects everything via the callers' "empty set = all" convention.
func parseOnly(s string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, id := range figureIDs() {
		known[id] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)",
				id, strings.Join(figureIDs(), ","))
		}
		want[id] = true
	}
	return want, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "verus-bench: "+format+"\n", args...)
	os.Exit(1)
}

// obsOutputs holds the pre-opened observability output files. Creating them
// before any experiment runs turns a bad path into an immediate exit 2
// instead of an error after a multi-minute run.
type obsOutputs struct {
	trace, metrics *os.File
}

// openObsOutputs creates each requested output file. An empty path leaves
// its slot nil.
func openObsOutputs(tracePath, metricsPath string) (obsOutputs, error) {
	var out obsOutputs
	open := func(path, flagName string, dst **os.File) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s: %v", flagName, err)
		}
		*dst = f
		return nil
	}
	if err := open(tracePath, "-trace", &out.trace); err != nil {
		return out, err
	}
	if err := open(metricsPath, "-metrics", &out.metrics); err != nil {
		return out, err
	}
	return out, nil
}

// writeObsOutputs exports the trace and registry into the pre-opened files.
func writeObsOutputs(files obsOutputs, tracer *obs.Tracer, registry *obs.Registry) error {
	export := func(f *os.File, what string, write func(*os.File) error) error {
		if f == nil {
			return nil
		}
		if err := write(f); err != nil {
			return fmt.Errorf("%s: %v", what, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("%s: %v", what, err)
		}
		return nil
	}
	var events []obs.Event
	if tracer != nil {
		events = tracer.Snapshot()
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("[trace ring overflowed: %d oldest events dropped; raise -tracecap to keep them]\n", d)
		}
	}
	if err := export(files.trace, "-trace", func(f *os.File) error {
		if err := obs.WriteJSONL(f, events); err != nil {
			return err
		}
		fmt.Printf("[wrote %d trace events to %s]\n", len(events), f.Name())
		return nil
	}); err != nil {
		return err
	}
	return export(files.metrics, "-metrics", func(f *os.File) error {
		// Publish the ring-overflow count so the exposition itself records
		// whether the exported trace is complete (obs_trace_dropped_total).
		obs.NewObserver(tracer, registry).SyncTraceDropped()
		if err := obs.WritePrometheus(f, registry); err != nil {
			return err
		}
		fmt.Printf("[wrote metrics exposition to %s]\n", f.Name())
		return nil
	})
}

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	only := flag.String("only", "", "comma-separated experiment ids ("+strings.Join(figureIDs(), ",")+")")
	faultsFlag := flag.String("faults", "", "fault scenario to run (tunnel-outage, highway-handover, city-loss, or 'all'); alone it runs only the fault scenarios")
	metroFlag := flag.Bool("metro", false, "run the city-scale metro sweep (thousands of flows across sharded cell sectors); alone it runs only the metro sweep")
	shardsFlag := flag.Int("shards", -1, "metro mesh shard count (0 = single-heap reference executor, -1 = harness default)")
	churnFlag := flag.Float64("churn", -1, "metro user churn fraction in [0,1] (-1 = harness default; 0.3 on full runs, 0 on -quick)")
	checkpointFlag := flag.String("checkpoint", "", "metro: write a resumable snapshot to this file at every -checkpoint-every of virtual time (requires -metro)")
	checkpointEvery := flag.Duration("checkpoint-every", time.Second, "metro: virtual-time interval between -checkpoint snapshots")
	resumeFlag := flag.String("resume", "", "metro: resume an interrupted sweep from this snapshot file (requires -metro; the file fixes the topology)")
	crashAfter := flag.Int("crash-after", 0, "metro: kill the process with SIGKILL right after the Nth checkpoint write (crash-injection testing; requires -checkpoint)")
	seed := flag.Int64("seed", 42, "base random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "trial worker count (1 = serial)")
	tracePath := flag.String("trace", "", "write the virtual-time event trace as JSONL to this file")
	metricsPath := flag.String("metrics", "", "write the metrics registry as Prometheus text exposition to this file")
	traceCap := flag.Int("tracecap", obs.DefaultTraceCapacity, "event ring capacity; oldest events are overwritten beyond it")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	// Validate -only, -faults, and the observability output paths before any
	// experiment runs, so a typo costs nothing.
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verus-bench: %v\n", err)
		os.Exit(2)
	}
	faultScenarios, err := parseFaults(*faultsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verus-bench: %v\n", err)
		os.Exit(2)
	}
	if *traceCap <= 0 {
		fmt.Fprintf(os.Stderr, "verus-bench: -tracecap must be positive (got %d)\n", *traceCap)
		os.Exit(2)
	}
	obsFiles, err := openObsOutputs(*tracePath, *metricsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verus-bench: %v\n", err)
		os.Exit(2)
	}
	if len(faultScenarios) > 0 {
		// -faults alone narrows the run to the fault harness; combined with
		// -only it joins the selection. "-only faults" (or a default full
		// run) uses every canned scenario.
		want["faults"] = true
	}
	if *shardsFlag < -1 {
		fmt.Fprintf(os.Stderr, "verus-bench: -shards must be >= -1 (got %d)\n", *shardsFlag)
		os.Exit(2)
	}
	if *churnFlag != -1 && !(*churnFlag >= 0 && *churnFlag <= 1) { // NaN fails too
		fmt.Fprintf(os.Stderr, "verus-bench: -churn must be in [0,1] or -1 for the default (got %v)\n", *churnFlag)
		os.Exit(2)
	}
	if *metroFlag {
		// Like -faults: alone it narrows the run to the metro sweep, with
		// -only it joins the selection.
		want["metro"] = true
	}

	// Metro-only flags outside a metro run are a usage error (exit 2, like
	// -only/-faults), not a silent no-op.
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-shards", *shardsFlag >= 0},
		{"-churn", *churnFlag >= 0},
		{"-checkpoint", *checkpointFlag != ""},
		{"-resume", *resumeFlag != ""},
		{"-crash-after", *crashAfter > 0},
	} {
		if f.set && !want["metro"] {
			fmt.Fprintf(os.Stderr, "verus-bench: %s only applies to the metro sweep; add -metro (or -only metro)\n", f.name)
			os.Exit(2)
		}
	}
	if *resumeFlag != "" && (*shardsFlag >= 0 || *churnFlag >= 0) {
		fmt.Fprintf(os.Stderr, "verus-bench: -resume restores the checkpointed topology; -shards/-churn conflict with it\n")
		os.Exit(2)
	}
	if *crashAfter > 0 && *checkpointFlag == "" {
		fmt.Fprintf(os.Stderr, "verus-bench: -crash-after requires -checkpoint\n")
		os.Exit(2)
	}
	everySet := false
	flag.Visit(func(f *flag.Flag) { everySet = everySet || f.Name == "checkpoint-every" })
	if everySet && *checkpointFlag == "" {
		fmt.Fprintf(os.Stderr, "verus-bench: -checkpoint-every requires -checkpoint\n")
		os.Exit(2)
	}
	if *checkpointFlag != "" && *checkpointEvery <= 0 {
		fmt.Fprintf(os.Stderr, "verus-bench: -checkpoint-every must be positive (got %v)\n", *checkpointEvery)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	scale, metroOpts := experiments.Full, experiments.DefaultMetroOptions()
	if *quick {
		scale, metroOpts = experiments.Quick, experiments.QuickMetroOptions()
	}
	if *shardsFlag >= 0 {
		metroOpts.Shards = *shardsFlag
	}
	if *churnFlag >= 0 {
		metroOpts.ChurnFrac = *churnFlag
	}
	metroOpts.CheckpointPath = *checkpointFlag
	if *checkpointFlag != "" {
		metroOpts.CheckpointEvery = *checkpointEvery
	}
	metroOpts.ResumeFrom = *resumeFlag
	if *crashAfter > 0 {
		n := *crashAfter
		metroOpts.CheckpointHook = func(ordinal int, path string) {
			if ordinal != n {
				return
			}
			// SIGKILL, not os.Exit: the crash harness wants the ungraceful
			// death a preempted worker actually suffers.
			p, err := os.FindProcess(os.Getpid())
			if err == nil {
				_ = p.Kill()
			}
		}
	}

	// One observer serves the whole run: trials label their series by
	// derived seed and flow, so even a full parallel sweep shares it safely.
	var tracer *obs.Tracer
	var registry *obs.Registry
	if obsFiles.trace != nil {
		tracer = obs.NewTracer(*traceCap)
	}
	if obsFiles.metrics != nil {
		registry = obs.NewRegistry()
	}
	var observer *obs.Observer
	if tracer != nil || registry != nil {
		observer = obs.NewObserver(tracer, registry)
	}
	setup := experiments.Setup{Scale: scale, Seed: *seed, Parallel: *parallel, Obs: observer,
		Faults: faultScenarios, Metro: metroOpts}

	for _, f := range experiments.Figures {
		if !want[f.ID] && (len(want) > 0 || f.OptIn) {
			continue
		}
		start := time.Now()
		fmt.Printf("==== %s (%s) ====\n", strings.ToUpper(f.ID), f.Title)
		renders, err := f.Run(setup)
		if err != nil {
			// A bad snapshot (truncated, corrupted, wrong version, or a
			// config mismatch) is a usage-class failure: fail closed before
			// any state is touched, exit 2 like flag validation.
			if f.ID == "metro" && (*resumeFlag != "" || *checkpointFlag != "") {
				fmt.Fprintf(os.Stderr, "verus-bench: metro: %v\n", err)
				os.Exit(2)
			}
			fatalf("%s: %v", f.ID, err)
		}
		fmt.Println(strings.Join(renders, "\n"))
		fmt.Printf("[%s took %v]\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}

	if err := writeObsOutputs(obsFiles, tracer, registry); err != nil {
		fatalf("%v", err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
}
