// Command verus-server runs the UDP receiver side of the Verus transport:
// it accepts data packets and acknowledges each one, printing goodput
// periodically. Pair it with verus-client.
//
// -debug-addr starts an HTTP introspection server: Prometheus text
// exposition of the receiver's live counters at /metrics, and the standard
// net/http/pprof handlers under /debug/pprof/.
//
// Usage:
//
//	verus-server -listen :9000 [-debug-addr 127.0.0.1:6060]
//
// Exit status: 0 after an interrupt, 1 when the listener cannot start, 2 on a
// bad flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and serves until an interrupt; it is the testable core of
// the command. It exits 2 on a bad flag and 1 when the listener cannot start.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verus-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:9000", "UDP listen address")
	interval := fs.Duration("report", 2*time.Second, "stats report interval")
	debugAddr := fs.String("debug-addr", "", "serve Prometheus /metrics and /debug/pprof on this HTTP address (empty disables)")
	if fs.Parse(args) != nil {
		return 2
	}
	if *interval <= 0 {
		fmt.Fprintf(stderr, "verus-server: -report %v: must be positive\n", *interval)
		return 2
	}

	r, err := transport.NewReceiver(*listen)
	if err != nil {
		fmt.Fprintf(stderr, "verus-server: %v\n", err)
		return 1
	}
	defer r.Close()
	fmt.Fprintf(stdout, "verus-server listening on %s\n", r.Addr())

	if *debugAddr != "" {
		registry := obs.NewRegistry()
		r.Observe(obs.NewObserver(nil, registry), 0, 0)
		// net/http/pprof registered itself on the default mux at import;
		// /metrics joins it there.
		http.Handle("/metrics", obs.MetricsHandler(registry))
		go func() {
			fmt.Fprintf(stdout, "debug server (pprof + /metrics) on http://%s\n", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, nil))
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	var lastBytes int64
	for {
		select {
		case <-ticker.C:
			st := r.Stats()
			rate := float64(st.Bytes-lastBytes) * 8 / interval.Seconds() / 1e6
			lastBytes = st.Bytes
			fmt.Fprintf(stdout, "rx: %d pkts (%d unique), %.2f Mbps current, %.2f Mbps mean\n",
				st.Packets, st.UniquePackets, rate, st.MeanMbps())
		case <-sig:
			st := r.Stats()
			fmt.Fprintf(stdout, "final: %d pkts, %d bytes, %.2f Mbps mean\n", st.Packets, st.Bytes, st.MeanMbps())
			return 0
		}
	}
}
