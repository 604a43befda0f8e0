// UDP loopback: the real-network path. Starts the UDP receiver and a Verus
// sender on localhost — the same code path as verus-server/verus-client —
// and prints goodput and RTTs after a short transfer. The exact protocol
// state machine used here also runs inside the simulator.
//
//	go run ./examples/udploopback
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/transport"
	"repro/internal/verus"
)

func main() {
	r, err := transport.NewReceiver("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("receiver on %s\n", r.Addr())

	v := verus.New(verus.DefaultConfig())
	s, err := transport.Dial(r.Addr().String(), v, transport.SenderConfig{})
	if err != nil {
		log.Fatal(err)
	}

	const dur = 3 * time.Second
	fmt.Printf("sending with %s for %v...\n", v.Name(), dur)
	time.Sleep(dur)
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}

	ss := s.Stats()
	rs := r.Stats()
	fmt.Printf("sender:   %d sent, %d acked, %d losses\n",
		ss.Sent, ss.Acked, ss.Losses)
	fmt.Printf("rtt:      p50 %.2f ms, p95 %.2f ms (n=%d)\n",
		ss.RTT.Median()*1000, ss.RTT.Percentile(95)*1000, ss.RTT.N())
	fmt.Printf("receiver: %d packets (%d unique), %.2f Mbps goodput\n",
		rs.Packets, rs.UniquePackets, rs.MeanMbps())
}
