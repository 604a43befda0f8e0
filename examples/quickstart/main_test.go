package main

// Example runs the program and pins its output: the simulation is seeded,
// so every run prints the same bytes.
func Example() {
	main()
	// Output:
	// channel: 7.27 Mbps mean over 30s
	// verus:   3.08 Mbps, delay mean 41 ms / p95 99 ms (0 losses, 0 timeouts)
	// protocol: 5854 epochs, 0 loss episodes, 0 timeouts, 38 profile refits
}
