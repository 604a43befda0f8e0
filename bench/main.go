// Command bench is the repository's one benchmark: five workloads through the
// public functions of internal/experiments and friends, end-to-end metrics
// with regression bounds, per-layer metrics from a separate traced pass, and
// correctness checks on every output. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md in this directory says why
// each was chosen and how the layers are expected to move them.
//
//	bash bench/run.sh                                  every workload, untraced
//	bash bench/run.sh --trace 1                        every workload, traced
//	bash bench/run.sh --workload metro_heap --seed 7   one workload, as the driver runs it
//	bash bench/run.sh diff old.json new.json           regression check against the bounds
//	bash bench/run.sh repeat a.json b.json             do two runs of one commit agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "diff" || os.Args[1] == "repeat") {
		os.Exit(compareMain(os.Args[1], os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := fs.Int64("seed", 42, "derives every input: traces, fault plans, metro options")
	seconds := fs.Int("seconds", 0, "length of the timed region (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments", fs.Args())
		os.Exit(2)
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *name == "" {
		os.Exit(runAll(sp, *seed, *seconds, *trace == 1))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(sp.workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runOne(sp, w, defaultConfig(*seed, *seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printResult(sp, res)
	if err := writeResultFile(resultPath(res.Workload, res.Trace), []*result{res}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printLastLine(res)
}

// defaultConfig is the frozen protocol: GOMAXPROCS = min(nproc, 2), trial
// runners serial, three to 25 set-ups, at least three repetitions, rungs as the
// median of 11 batches of `seconds` × 1.25 ms (20 ms at the declared 16 s).
func defaultConfig(seed int64, seconds int) config {
	nproc := runtime.NumCPU()
	if nproc > 2 {
		runtime.GOMAXPROCS(2)
	}
	return config{
		seed: seed, seconds: seconds, sizes: frozenSizes, nproc: nproc,
		minSetups: 3, setupBudget: time.Second, minReps: 3,
		rungBatches: 11, rungBatch: time.Duration(seconds) * 1250 * time.Microsecond,
	}
}

// outDir is where result files, spans and scratch files go: bench/out/ from
// the checkout root, out/ from inside bench/.
func outDir() string {
	if _, err := os.Stat("bench"); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// traceArg is the --trace argument, also the tag of a result file's name.
func traceArg(trace bool) string {
	if trace {
		return "1"
	}
	return "0"
}

func resultPath(workload string, trace bool) string {
	return filepath.Join(outDir(), workload+".trace"+traceArg(trace)+".json")
}

// runOne runs one workload in this process with a scratch directory of its own.
func runOne(sp *spec, w workload, cfg config, trace bool) (*result, error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir(), "tmp-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	var res *result
	if trace {
		res, err = traced(w, cfg)
	} else {
		res, err = measure(w, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Trace = trace
	var omit map[string]bool
	if cfg.nproc < 2 {
		omit = parallelOnly
	}
	res.conform(sp.decls(trace), omit)
	return res, nil
}

// printResult prints every metric by name with unit, direction and bound,
// then the info fields and any failed check.
func printResult(sp *spec, res *result) {
	fmt.Printf("workload %s  seed %d  trace %v  checks %d/%d ok  fail_frac %g  render %s\n",
		res.Workload, res.Provenance.Seed, res.Trace, res.Attempted-res.Failed, res.Attempted,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.RenderSHA256[:min(12, len(res.RenderSHA256))])
	if res.Degraded != "" {
		fmt.Printf("  degraded: %s\n", res.Degraded)
	}
	for _, d := range sp.decls(res.Trace) {
		v, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := "no bound"
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %.3g%%", d.Bound*100)
		}
		fmt.Printf("  %-36s %16.6g %-8s %-6s better  %s\n", d.Name, v.Value, d.Unit, d.Better, bound)
	}
	keys := make([]string, 0, len(res.Info))
	for k := range res.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-31s %16.6g\n", k, res.Info[k])
	}
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Printf("  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
}

// printLastLine prints the contract's result object as the last line of
// standard output.
func printLastLine(res *result) {
	line, err := json.Marshal(res.lastLine)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Println(string(line))
}

// resultFile is what diff and repeat compare: the results of one pass.
type resultFile struct {
	Results []*result `json:"results"`
}

func writeResultFile(path string, results []*result) error {
	data, err := json.MarshalIndent(resultFile{Results: results}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every declared workload, each in a child process of this
// binary — a clean peak RSS and no heap carried from one workload into the
// next — and merges the children's result files into one.
func runAll(sp *spec, seed int64, seconds int, trace bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var all []*result
	status := 0
	for _, name := range sp.workloadNames() {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", traceArg(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			status = 1
			continue
		}
		rf, err := readResultFile(resultPath(name, trace))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
			continue
		}
		all = append(all, rf.Results...)
		for _, r := range rf.Results {
			if !r.Correct {
				status = 1
			}
		}
	}
	path := resultPath("all", trace)
	if err := writeResultFile(path, all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return status
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
