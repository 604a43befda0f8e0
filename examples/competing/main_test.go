package main

// Example runs the program and pins its output: the simulation is seeded,
// so every run prints the same bytes.
func Example() {
	main()
	// Output:
	// cell: 17.6 Mbps mean; 5 Verus flows (R=2) behind the paper's RED queue
	//
	// flow 0:  1.78 Mbps @   29 ms mean delay
	// flow 1:  2.81 Mbps @   29 ms mean delay
	// flow 2:  3.03 Mbps @   34 ms mean delay
	// flow 3:  0.97 Mbps @   30 ms mean delay
	// flow 4:  1.81 Mbps @   29 ms mean delay
	//
	// aggregate: 10.39 Mbps (59% of cell), Jain fairness 61.0%
}
