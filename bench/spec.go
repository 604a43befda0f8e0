package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which the metric may worsen; per-layer metrics
// carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json, the single declaration of workloads and metrics:
// the program emits exactly what it lists, and diff/repeat take bounds from it.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the checkout
// root, where run.sh starts the program) or from its parent (where `go test`
// and `go run .` inside bench/ start it).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *spec) decls(trace bool) []metricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// sizes are the frozen input sizes of the five workloads, calibrated on the
// 2-vCPU reference box so one repetition of each timed region takes 2–7 s
// and a run fits `run_seconds` with at least three repetitions. Changing a
// size re-baselines every number; do it in a change that does nothing else.
type sizes struct {
	// single_flow: Seeds independent Verus flows of SimS simulated seconds.
	SingleSeeds int
	SingleSimS  float64
	// faults_traced: every canned plan × 4 protocols × FaultReps trials of
	// FaultSimS simulated seconds, observed through a ring of ObsRing events.
	FaultReps int
	FaultSimS float64
	ObsRing   int
	// metro_*: on each of MetroSeeds topologies, one sweep point of MetroFlows
	// flows over MetroSectors sectors, MetroSimS simulated seconds per
	// protocol trial.
	MetroSeeds    int
	MetroFlows    int
	MetroSectors  int
	MetroSimS     float64
	MetroChurn    float64
	MetroHandover float64 // HandoverScale: compresses handover cadence so short trials still cross cells
	MetroShards   int
	// metro_ckpt: checkpoint cadence in virtual time and resumes per repetition.
	CkptEveryS float64
	Resumes    int
}

var frozenSizes = sizes{
	SingleSeeds: 20, SingleSimS: 60,
	FaultReps: 8, FaultSimS: 20, ObsRing: 1 << 16,
	MetroSeeds: 3, MetroFlows: 1000, MetroSectors: 8, MetroSimS: 1.5, MetroChurn: 0.3, MetroHandover: 0.02, MetroShards: 2,
	CkptEveryS: 0.25, Resumes: 1,
}

// scaled shrinks every duration and the fault trials per cell by f (the
// warm-up runs at 1/10) and leaves the topology alone, so a warm-up touches
// the same code and builds the same structures as a timed repetition.
func (z sizes) scaled(f float64) sizes {
	z.SingleSimS *= f
	z.FaultReps = max(1, int(float64(z.FaultReps)*f))
	// The tunnel-outage plan's two outages overlap below ~6 simulated seconds.
	z.FaultSimS = math.Max(z.FaultSimS*f, 8)
	z.MetroSimS *= f
	z.CkptEveryS *= f
	return z
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
