package experiments

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// These golden tests lock in the runner's determinism contract for every
// Figures row that names golden digests: at a fixed seed, each row renders
// three times — serially with a live observer, on 8 workers without one, and
// on 8 workers with one — and every render must match the SHA-256 digest
// committed for it. Equal digests prove serial ≡ parallel, that two
// identically-seeded parallel runs agree, and that observability is passive:
// scheduling order, worker count, completion order and instrumentation must
// never leak into results.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.txt from the current implementation")

const goldenDigestPath = "testdata/golden_digests.txt"

// goldenFailureDir is where a digest mismatch dumps its evidence: the
// mismatching render and both digests. CI uploads the directory as an
// artifact, so a red golden run can be diagnosed without reproducing it.
const goldenFailureDir = "golden-failure"

var goldenConfigs = [...]struct {
	label    string
	parallel int
	observed bool
}{{"serial-observed", 1, true}, {"parallel8", 8, false}, {"parallel8-observed", 8, true}}

const serialObserved, parallel8, parallel8Observed = 0, 1, 2

// golden holds every golden digest name in table order and, per
// goldenConfigs entry, its renders; computed once per test binary and shared
// by the three golden tests.
var golden struct {
	once    sync.Once
	names   []string
	renders [len(goldenConfigs)][]string
	obs     *obs.Observer
	err     error
}

// goldenRenders runs every golden Figures row in each configuration at the
// Golden scale and seed 123.
func goldenRenders(t *testing.T) {
	t.Helper()
	golden.once.Do(func() {
		os.RemoveAll(goldenFailureDir) // evidence of this run only
		golden.obs = obs.NewObserver(obs.NewTracer(1<<14), obs.NewRegistry())
		for _, f := range Figures {
			if len(f.Golden) == 0 {
				continue
			}
			golden.names = append(golden.names, f.Golden...)
			for c, cfg := range goldenConfigs {
				s := Setup{Scale: Golden, Seed: 123, Parallel: cfg.parallel}
				if cfg.observed {
					s.Obs = golden.obs
				}
				r, err := f.Run(s)
				if err == nil && len(r) != len(f.Golden) {
					err = fmt.Errorf("%d renders for %d golden names", len(r), len(f.Golden))
				}
				if err != nil {
					golden.err = fmt.Errorf("%s (%s): %v", f.ID, cfg.label, err)
					return
				}
				golden.renders[c] = append(golden.renders[c], r...)
			}
		}
	})
	if golden.err != nil {
		t.Fatal(golden.err)
	}
}

func digest(render string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(render))) }

// checkGolden compares golden render i of configuration c with its committed
// digest, saving the evidence under goldenFailureDir on a mismatch.
func checkGolden(t *testing.T, want map[string]string, c, i int) {
	t.Helper()
	name, label, render := golden.names[i], goldenConfigs[c].label, golden.renders[c][i]
	w, ok := want[name]
	if !ok {
		t.Errorf("%s: no committed digest (run with -update-golden to add)", name)
		return
	}
	if got := digest(render); got != w {
		t.Errorf("%s (%s): render digest %.16s != committed %.16s — output changed from the reference",
			name, label, got, w)
		base := filepath.Join(goldenFailureDir, name+"-"+label)
		if err := errors.Join(os.MkdirAll(goldenFailureDir, 0o755),
			os.WriteFile(base+".txt", []byte(render), 0o644),
			os.WriteFile(base+".digests", []byte("committed "+w+"\ncomputed  "+got+"\n"), 0o644)); err != nil {
			t.Logf("golden-failure artifacts: %v", err)
		}
	}
}

// TestGoldenReferenceDigests compares every golden render on 8 workers
// against the SHA-256 digests committed in-repo. The digests were captured
// before the hot-path optimizations (spline segment precomputation,
// sorted-slice knot store, 4-ary event heap): those rewrites restructure data
// layout and control flow but must not reorder a single floating-point
// operation, so the rendered tables stay byte-identical forever. A digest
// mismatch means some change silently altered the arithmetic — which a
// serial-vs-parallel comparison alone cannot see, since both sides would
// drift together.
//
// After an *intentional* output change (new harness behavior, changed
// clamps), regenerate from the unobserved 8-worker renders with:
//
//	go test ./internal/experiments -run TestGoldenReferenceDigests -update-golden
func TestGoldenReferenceDigests(t *testing.T) {
	goldenRenders(t)
	if *updateGolden {
		var b strings.Builder
		for i, name := range golden.names {
			fmt.Fprintf(&b, "%s %s\n", name, digest(golden.renders[parallel8][i]))
		}
		if err := os.WriteFile(goldenDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenDigestPath, len(golden.names))
		return
	}
	want := readGoldenDigests(t)
	got := make(map[string]bool)
	for i, name := range golden.names {
		got[name] = true
		if r := golden.renders[parallel8][i]; len(r) < 20 {
			t.Errorf("%s: suspiciously short render: %q", name, r)
		}
		checkGolden(t, want, parallel8, i)
	}
	// Stale entries signal a renamed/removed row whose digest should go.
	var stale []string
	for name := range want {
		if !got[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("%s: committed digest has no matching Figures row", name)
	}
}

// TestGoldenSerialParallelEquivalence requires each serial render to match
// the committed digest the 8-worker render matches: serial ≡ parallel.
func TestGoldenSerialParallelEquivalence(t *testing.T) {
	goldenRenders(t)
	want := readGoldenDigests(t)
	for i, name := range golden.names {
		t.Run(name, func(t *testing.T) { checkGolden(t, want, serialObserved, i) })
	}
}

// TestGoldenDigestsWithObservability is the observability-passivity
// contract: with a live tracer AND a live metrics registry attached, the
// 8-worker renders still match their committed digests (the serial renders
// above ran observed too). Tracing and metrics must never feed back into
// protocol arithmetic, read the wall clock, or draw randomness. The test also
// asserts the observer actually saw traffic, so it cannot pass vacuously with
// unwired hooks.
func TestGoldenDigestsWithObservability(t *testing.T) {
	goldenRenders(t)
	want := readGoldenDigests(t)
	for i, name := range golden.names {
		t.Run(name, func(t *testing.T) { checkGolden(t, want, parallel8Observed, i) })
	}
	if golden.obs.Tracer().Emitted() == 0 {
		t.Error("tracer saw no events across every golden row; instrumentation is not wired")
	}
	if len(golden.obs.Registry().Snapshot()) == 0 {
		t.Error("registry holds no series across every golden row; instrumentation is not wired")
	}
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestPath)
	if err != nil {
		t.Fatalf("no committed golden digests (%v); run with -update-golden first", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			continue
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenSeedSensitivity guards against the trivial way the equivalence
// test could pass: harnesses ignoring their seed entirely.
func TestGoldenSeedSensitivity(t *testing.T) {
	a := Figure8(MacroOptions{Duration: 8 * time.Second, Reps: 1, Seed: 1, Parallel: 8}).Render()
	b := Figure8(MacroOptions{Duration: 8 * time.Second, Reps: 1, Seed: 2, Parallel: 8}).Render()
	if a == b {
		t.Error("different seeds rendered identical Figure 8 tables; seed plumbing is broken")
	}
}
