// Command verus-sim runs one simulated scenario: N flows of a chosen
// congestion controller over either a synthetic cellular channel or a fixed
// link, and prints per-flow throughput/delay.
//
// Usage:
//
//	verus-sim -proto verus -flows 4 -tech 3g -scenario city-driving -dur 60s
//	verus-sim -proto cubic -fixed 20 -dur 30s
//
// Exit status: 0 on success, 2 on a flag that names no valid scenario.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cellular"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

func maker(proto string, r float64) (experiments.Maker, error) {
	switch strings.ToLower(proto) {
	case "verus":
		return experiments.VerusMaker(r), nil
	case "cubic":
		return experiments.CubicMaker(), nil
	case "newreno", "reno":
		return experiments.NewRenoMaker(), nil
	case "vegas":
		return experiments.VegasMaker(), nil
	case "sprout":
		return experiments.SproutMaker(), nil
	default:
		return experiments.Maker{}, fmt.Errorf("unknown protocol %q (verus|cubic|newreno|vegas|sprout)", proto)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the scenario and prints its table; it is the testable
// core of the command. Every flag is checked before any simulation work.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verus-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	proto := fs.String("proto", "verus", "congestion controller: verus|cubic|newreno|vegas|sprout")
	r := fs.Float64("r", 2, "Verus R parameter")
	flows := fs.Int("flows", 1, "number of flows")
	techName := fs.String("tech", "3g", "cellular technology: 3g|lte")
	scName := fs.String("scenario", "campus-stationary", "mobility scenario")
	mbps := fs.Float64("mbps", 0, "cell mean rate override (Mbps, 0 = tech default)")
	fixed := fs.Float64("fixed", 0, "use a fixed link at this rate (Mbps) instead of a cellular trace")
	queue := fs.Int("queue", 2_000_000, "bottleneck buffer (bytes)")
	red := fs.Bool("red", false, "use the paper's RED queue instead of DropTail")
	dur := fs.Duration("dur", 60*time.Second, "run duration")
	seed := fs.Int64("seed", 1, "random seed")
	if fs.Parse(args) != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "verus-sim: %v\n", err)
		return 2
	}
	mk, err := maker(*proto, *r)
	if err != nil {
		return usage(err)
	}
	tech, err := cellular.ParseTech(*techName)
	if err != nil {
		return usage(err)
	}
	sc, err := cellular.ParseScenario(*scName)
	if err != nil {
		return usage(err)
	}
	switch {
	case *flows < 1:
		return usage(fmt.Errorf("-flows %d: need at least one flow", *flows))
	case *dur <= 0:
		return usage(fmt.Errorf("-dur %v: must be positive", *dur))
	case *queue <= 0:
		return usage(fmt.Errorf("-queue %d: must be positive", *queue))
	case *fixed < 0:
		return usage(fmt.Errorf("-fixed %g: must be positive (0 selects a cellular trace)", *fixed))
	case *mbps < 0:
		return usage(fmt.Errorf("-mbps %g: must not be negative", *mbps))
	}

	spec := experiments.Dumbbell{RateMbps: *fixed, QueueBytes: *queue, RED: *red, Seed: *seed}
	if *fixed == 0 {
		tr := cellular.NewModel(cellular.Config{Tech: tech, Scenario: sc, MeanMbps: *mbps, Seed: *seed}).Trace(*dur)
		fmt.Fprintf(stdout, "channel: %s, mean %.2f Mbps over %v\n", tr.Name, tr.MeanMbps(), *dur)
		spec.Trace, spec.Loop = tr, true
	}
	for i := 0; i < *flows; i++ {
		spec.Flows = append(spec.Flows, netsim.FlowSpec{Ctrl: mk.New()})
	}
	res := spec.Run(*dur)

	fmt.Fprintf(stdout, "%-6s %12s %14s %14s %8s %9s\n", "flow", "tput (Mbps)", "delay avg (ms)", "delay p95 (ms)", "losses", "timeouts")
	for _, f := range res.Flows {
		fmt.Fprintf(stdout, "%-6d %12.2f %14.0f %14.0f %8d %9d\n",
			f.Flow, f.Mbps, f.DelayMean*1000, f.DelayP95*1000, f.Losses, f.Timeouts)
	}
	fmt.Fprintf(stdout, "mean: %.2f Mbps @ %.0f ms\n", res.MeanMbps(), res.MeanDelay()*1000)
	return 0
}
