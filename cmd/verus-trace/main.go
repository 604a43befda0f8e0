// Command verus-trace generates, inspects, and converts cellular channel
// traces.
//
// Usage:
//
//	verus-trace gen  -tech lte -scenario city-driving -dur 2m -out chan.trace
//	verus-trace info -in chan.trace [-window 100ms]
//	verus-trace conv -in chan.trace -out chan.mahi -format mahimahi
//
// Exit status: 0 on success, 1 on bad input or I/O failure, 2 on usage
// errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// errUsage reports a usage error, whose message the flag set has printed.
var errUsage = errors.New("usage error")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand; it is the testable core of the command.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func([]string, io.Writer, io.Writer) error{"gen": gen, "info": info, "conv": conv}
	if len(args) < 1 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: verus-trace gen|info|conv [flags]")
		return 2
	}
	switch err := cmds[args[0]](args[1:], stdout, stderr); {
	case err == nil:
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(stderr, "verus-trace %s: %v\n", args[0], err)
		return 1
	}
}

// parse parses args into fs, reporting flag errors on stderr.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil {
		return errUsage
	}
	return nil
}

// usage reports a missing or unknown flag value as a usage error.
func usage(stderr io.Writer, err error) error {
	fmt.Fprintln(stderr, err)
	return errUsage
}

func gen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	tech := fs.String("tech", "3g", "3g|lte")
	op := fs.String("operator", "b", "a|b")
	scName := fs.String("scenario", "campus-stationary", "mobility scenario")
	mbps := fs.Float64("mbps", 0, "mean rate override (Mbps)")
	dur := fs.Duration("dur", time.Minute, "trace duration")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	cfg := cellular.Config{MeanMbps: *mbps, Seed: *seed}
	var err error
	if cfg.Tech, err = cellular.ParseTech(*tech); err != nil {
		return usage(stderr, err)
	}
	if cfg.Operator, err = cellular.ParseOperator(*op); err != nil {
		return usage(stderr, err)
	}
	if cfg.Scenario, err = cellular.ParseScenario(*scName); err != nil {
		return usage(stderr, err)
	}
	tr := cellular.NewModel(cfg).Trace(*dur)
	if *out == "" {
		return tr.Write(stdout)
	}
	if err := tr.Save(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d opportunities, %.2f Mbps mean over %v\n", *out, len(tr.Ops), tr.MeanMbps(), tr.Duration)
	return nil
}

func info(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "", "trace file")
	window := fs.Duration("window", 100*time.Millisecond, "throughput window")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return usage(stderr, errors.New("-in required"))
	}
	tr, err := trace.Load(*in)
	if err != nil {
		return err
	}
	w := tr.WindowedMbps(*window)
	if len(w) == 0 {
		return fmt.Errorf("no throughput windows: window %v over a trace of duration %v", *window, tr.Duration)
	}
	fmt.Fprintf(stdout, "name: %s\nduration: %v\nopportunities: %d\nbytes: %d\nmean: %.3f Mbps\n",
		tr.Name, tr.Duration, len(tr.Ops), tr.TotalBytes(), tr.MeanMbps())
	sizes, gaps := cellular.BurstStats(tr, 200*time.Microsecond)
	var sMean float64
	for _, s := range sizes {
		sMean += s
	}
	if len(sizes) > 0 {
		sMean /= float64(len(sizes))
	}
	var gMean time.Duration
	for _, g := range gaps {
		gMean += g
	}
	if len(gaps) > 0 {
		gMean /= time.Duration(len(gaps))
	}
	fmt.Fprintf(stdout, "bursts: %d (mean %.0f B, mean gap %v)\n", len(sizes), sMean, gMean)
	lo, hi := w[0], w[0]
	for _, v := range w {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Fprintf(stdout, "windowed (%v): min %.2f, max %.2f Mbps over %d windows\n", *window, lo, hi, len(w))
	return nil
}

func conv(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("conv", flag.ContinueOnError)
	in := fs.String("in", "", "input trace (CSV or mahimahi, as -informat says)")
	inFormat := fs.String("informat", "csv", "csv|mahimahi")
	out := fs.String("out", "", "output file (default stdout)")
	outFormat := fs.String("format", "mahimahi", "csv|mahimahi")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}
	if *in == "" {
		return usage(stderr, errors.New("-in required"))
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	if *inFormat == "mahimahi" {
		tr, err = trace.ReadMahimahi(f)
	} else {
		tr, err = trace.Read(f)
	}
	if err != nil {
		return err
	}
	write := tr.Write
	if *outFormat == "mahimahi" {
		write = tr.WriteMahimahi
	}
	if *out == "" {
		return write(stdout)
	}
	w, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		return err
	}
	// A failed flush to disk surfaces only here.
	return w.Close()
}
