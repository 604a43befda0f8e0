// Command verus-client runs the UDP sender side of the Verus transport: a
// full-buffer flow driven by a chosen congestion controller, reporting rate
// and RTT while it runs.
//
// -debug-addr starts an HTTP introspection server: Prometheus text
// exposition of the sender's live counters (plus the controller's, when it
// is observable — Verus is) at /metrics, and the standard net/http/pprof
// handlers under /debug/pprof/.
//
// Usage:
//
//	verus-client -server 127.0.0.1:9000 -proto verus -r 2 -dur 30s
//	             [-debug-addr 127.0.0.1:6061]
//
// Exit status: 0 on success, 1 when the transfer fails, 2 on a bad flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/sprout"
	"repro/internal/tcp"
	"repro/internal/transport"
	"repro/internal/verus"
)

func controller(proto string, r float64) (cc.Controller, error) {
	switch strings.ToLower(proto) {
	case "verus":
		cfg := verus.DefaultConfig()
		cfg.R = r
		return verus.New(cfg), nil
	case "cubic":
		return tcp.NewCubic(), nil
	case "newreno", "reno":
		return tcp.NewNewReno(), nil
	case "vegas":
		return tcp.NewVegas(), nil
	case "sprout":
		return sprout.New(sprout.DefaultConfig()), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", proto)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the transfer and prints its reports; it is the
// testable core of the command. Every flag is checked before any socket is
// opened. It exits 2 on a bad flag and 1 when the transfer fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verus-client", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "127.0.0.1:9000", "server UDP address")
	proto := fs.String("proto", "verus", "verus|cubic|newreno|vegas|sprout")
	r := fs.Float64("r", 2, "Verus R parameter")
	dur := fs.Duration("dur", 30*time.Second, "transfer duration")
	report := fs.Duration("report", 2*time.Second, "stats report interval")
	debugAddr := fs.String("debug-addr", "", "serve Prometheus /metrics and /debug/pprof on this HTTP address (empty disables)")
	if fs.Parse(args) != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "verus-client: %v\n", err)
		return 2
	}
	ctrl, err := controller(*proto, *r)
	if err != nil {
		return usage(err)
	}
	switch {
	case *dur <= 0:
		return usage(fmt.Errorf("-dur %v: must be positive", *dur))
	case *report <= 0:
		return usage(fmt.Errorf("-report %v: must be positive", *report))
	}

	var cfg transport.SenderConfig
	if *debugAddr != "" {
		registry := obs.NewRegistry()
		// Dial registers the sender's counters and attaches the controller
		// when it is observable.
		cfg.Obs = obs.NewObserver(nil, registry)
		http.Handle("/metrics", obs.MetricsHandler(registry))
		go func() {
			fmt.Fprintf(stdout, "debug server (pprof + /metrics) on http://%s\n", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, nil))
		}()
	}
	s, err := transport.Dial(*server, ctrl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "verus-client: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "verus-client: %s -> %s for %v\n", ctrl.Name(), *server, *dur)

	deadline := time.After(*dur)
	ticker := time.NewTicker(*report)
	defer ticker.Stop()
	var lastAcked int64
	start := time.Now()
	for {
		select {
		case err := <-s.Errors():
			fmt.Fprintf(stderr, "verus-client: %v\n", err)
		case <-ticker.C:
			st := s.Stats()
			rate := float64(st.Acked-lastAcked) * 1400 * 8 / report.Seconds() / 1e6
			lastAcked = st.Acked
			fmt.Fprintf(stdout, "tx: sent=%d acked=%d loss=%d to=%d  %.2f Mbps  rtt p50=%.1fms p95=%.1fms\n",
				st.Sent, st.Acked, st.Losses, st.Timeouts,
				rate, st.RTT.Median()*1000, st.RTT.Percentile(95)*1000)
		case <-deadline:
			if err := s.Close(); err != nil {
				fmt.Fprintf(stderr, "verus-client: %v\n", err)
				return 1
			}
			st := s.Stats()
			elapsed := time.Since(start).Seconds()
			fmt.Fprintf(stdout, "done: %d acked (%.2f Mbps goodput), rtt mean %.1f ms\n",
				st.Acked, float64(st.Acked)*1400*8/elapsed/1e6, st.RTT.Mean()*1000)
			return 0
		}
	}
}
