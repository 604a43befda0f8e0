package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/snap"
)

// value is one measured metric as the last output line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the driver's contract: the object a run prints as the last line
// of its standard output.
type lastLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is one run of one workload; the whole of it, with provenance, goes
// to bench/out/.
type result struct {
	lastLine

	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	// Degraded names what this machine could not measure (nproc < shards).
	Degraded string `json:"degraded,omitempty"`
	// Info holds unbounded fields: wall_s and its min/max/n, shard_speedup,
	// resume_s, every deterministic count.
	Info         map[string]float64 `json:"info"`
	RenderSHA256 string             `json:"render_sha256"`
	Checks       []check            `json:"checks"`
	Provenance   provenance         `json:"provenance"`
}

// provenance is enough to reproduce a result file from its header alone.
type provenance struct {
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Sizes       sizes  `json:"sizes"`
	SnapVersion uint32 `json:"snap_version"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		GitRevision: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Sizes: cfg.sizes, SnapVersion: snap.Version,
	}
	// The driver's checkout is not a git repository; "unknown" is the answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitRevision = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	sizes   sizes
	nproc   int // simulated down by the tests to drive the degraded path
	tmp     string
	// Set-up (input generation plus a warm-up at 1/10 scale) is repeated at
	// least minSetups times and until setupBudget is spent, at most
	// maxSetups times; setup_s is the median.
	minSetups   int
	setupBudget time.Duration
	// minReps is the fewest repetitions of the timed region.
	minReps int
	// rungBatches × rungBatch is the time budget of one rung.
	rungBatches int
	rungBatch   time.Duration
}

const maxSetups = 25

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// resetPeakRSS resets the process's VmHWM to its current RSS and reports
// whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sameRep checks that a later repetition reproduced the first exactly: the
// render, the simulated outcome, and every deterministic count.
func sameRep(a, b *rep) (bool, string) {
	if a.render != b.render {
		return false, "renders differ"
	}
	if a.simS != b.simS || a.goodput != b.goodput || a.delayMs != b.delayMs {
		return false, "simulated outcomes differ"
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return false, fmt.Sprintf("count %s: %v then %v", k, v, b.counts[k])
		}
	}
	return len(a.counts) == len(b.counts), "count sets differ"
}

// setUp runs set-up several times — derive the inputs from the seed, then
// one warm-up repetition at 1/10 scale so lazy initialisation and the first
// growth of pools and heaps are paid before timing — and returns the timed
// region's repetition with the median set-up time.
func setUp(w workload, cfg config) (run runFunc, verify verifyFunc, setupS float64, err error) {
	var times []float64
	start := time.Now()
	for len(times) < cfg.minSetups || (time.Since(start) < cfg.setupBudget && len(times) < maxSetups) {
		t0 := time.Now()
		warm, _ := w.prepare(cfg.sizes.scaled(0.1), cfg.seed, cfg.tmp)
		if _, err := warm(); err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		run, verify = w.prepare(cfg.sizes, cfg.seed, cfg.tmp)
		times = append(times, time.Since(t0).Seconds())
	}
	return run, verify, median(times), nil
}

// measure is the untraced run: set-up, then identical repetitions of the
// timed region until cfg.seconds have passed (at least cfg.minReps), then the
// cross-executor checks. Timings are those of the fastest repetition: on a
// shared host a neighbour can only add time, in stretches of tens of seconds,
// so the fastest repetition is the least disturbed measurement of the program
// and the median drifts with the machine (Chen & Revels, "Robust benchmarking
// in noisy environments", 2016).
func measure(w workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	if w.sharded && cfg.nproc < cfg.sizes.MetroShards {
		res.Degraded = "nproc<shards"
	}
	run, verify, setupS, err := setUp(w, cfg)
	if err != nil {
		return nil, err
	}

	var reps []*rep
	var walls, peaks []float64
	perRepPeak := true
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(reps) < cfg.minReps || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		// Every repetition starts from a collected heap whose free pages are
		// back with the OS and from a reset high-water mark, so neither the
		// collector's phase nor the fragmentation one repetition leaves behind
		// reaches the time or the peak RSS of the next.
		debug.FreeOSMemory()
		perRepPeak = resetPeakRSS() && perRepPeak
		r, wall, err := timedRun(run)
		if err != nil {
			return nil, err
		}
		reps, walls, peaks = append(reps, r), append(walls, wall), append(peaks, peakRSSMB())
		if len(reps) == 1 {
			res.Checks = append(res.Checks, r.checks...)
			continue
		}
		ok, why := sameRep(reps[0], r)
		res.Checks = append(res.Checks, checkf(fmt.Sprintf("repetition %d identical to the first", len(reps)), ok, "%s", why))
		r.render = "" // compared; only its laps and timings are still needed
	}
	runtime.ReadMemStats(&m1)
	first, n := reps[0], float64(len(reps))
	simTotal := first.simS * n

	best := reps[slices.Index(walls, slices.Min(walls))]
	wall := fastestSegments(reps)
	res.Info["wall_s"] = wall
	res.Info["wall_s_fastest_rep"] = slices.Min(walls)
	res.Info["wall_s_median"] = median(walls)
	res.Info["wall_s_max"] = slices.Max(walls)
	res.Info["wall_s_n"] = n
	res.Info["sim_s_per_repetition"] = first.simS
	res.addInfo(first.counts, best.timings)

	if verify != nil {
		checks, info, err := verify(first)
		if err != nil {
			return nil, err
		}
		res.Checks = append(res.Checks, checks...)
		res.addInfo(info)
		// A core-scaling figure is refused when the shards cannot run in parallel.
		if heap, ok := info["heap_first_sweep_s"]; ok && res.Degraded == "" {
			res.Info["shard_speedup"] = heap / best.timings["metro.first_sweep_s"]
		}
		if sharded, ok := info["sharded_first_sweep_s"]; ok {
			res.Info["ckpt.write_share"] = 1 - sharded/best.timings["ckpt.first_write_leg_s"]
		}
	}

	// Memory is not disturbed in one direction only: the median repetition's
	// peak. Without a resettable high-water mark the last reading is the
	// process's peak.
	rss := peaks[len(peaks)-1]
	if perRepPeak {
		rss = median(peaks)
	}
	res.RenderSHA256 = sha(first.render)
	res.set("setup_s", setupS)
	res.set("sim_s_per_wall_s", first.simS/wall)
	res.set("peak_rss_mb", rss)
	res.set("allocs_per_sim_s", float64(m1.Mallocs-m0.Mallocs)/simTotal)
	res.set("alloc_mb_per_sim_s", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/simTotal)
	res.Info["sim_goodput_mbps"] = first.goodput
	res.Info["sim_delay_p95_ms"] = first.delayMs
	res.tally()
	return res, nil
}

// segmentsPerRep is how finely a repetition is cut for fastestSegments: fine
// enough that a disturbance of a second spoils one segment and not the
// repetition, coarse enough that every segment holds many collector cycles —
// a segment short enough to dodge the collector would hide its cost.
const segmentsPerRep = 8

// fastestSegments is the wall time of one undisturbed repetition: the
// repetitions are identical, so each is cut at the same laps into at most
// segmentsPerRep segments of about equal length, and the result is the sum
// over the segments of the fastest each ran in any repetition.
func fastestSegments(reps []*rep) float64 {
	first := reps[0].laps
	total := 0.0
	for _, l := range first {
		total += l
	}
	var fastest []float64 // by segment
	for _, r := range reps {
		if len(r.laps) != len(first) {
			panic("repetitions of one workload lapped differently") // they are the same code on the same input
		}
		seg, segTime, cum := 0, 0.0, 0.0
		for i, l := range r.laps {
			segTime += l
			cum += first[i] // the cuts come from the first repetition, so every repetition is cut alike
			if cum >= total*float64(seg+1)/segmentsPerRep || i == len(first)-1 {
				if seg == len(fastest) {
					fastest = append(fastest, segTime)
				}
				fastest[seg] = min(fastest[seg], segTime)
				seg, segTime = seg+1, 0
			}
		}
	}
	sum := 0.0
	for _, s := range fastest {
		sum += s
	}
	return sum
}

func newResult(w workload, cfg config) *result {
	return &result{lastLine: lastLine{Metrics: map[string]value{}}, Workload: w.name,
		Info: map[string]float64{}, Provenance: newProvenance(cfg)}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = value{Value: v} }

func (r *result) addInfo(fields ...map[string]float64) {
	for _, m := range fields {
		for k, v := range m {
			r.Info[k] = v
		}
	}
}

// tally derives the contract's correct/attempted/failed from the checks.
func (r *result) tally() {
	r.Attempted, r.Failed = len(r.Checks), 0
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// conform keeps exactly the declared metrics, stamps their units, and fails
// the run for any the program did not produce.
func (r *result) conform(decls []metricDecl, omit map[string]bool) {
	out := make(map[string]value, len(decls))
	var missing []string
	for _, d := range decls {
		if omit[d.Name] {
			continue
		}
		if v, ok := r.Metrics[d.Name]; ok {
			out[d.Name] = value{Value: v.Value, Unit: d.Unit}
		} else {
			missing = append(missing, d.Name)
		}
	}
	r.Metrics = out
	r.Checks = append(r.Checks, checkf("every declared metric measured", len(missing) == 0, "missing: %s", strings.Join(missing, ", ")))
	r.tally()
}
