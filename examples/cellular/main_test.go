package main

// Example runs the program and pins its output: the simulation is seeded,
// so every run prints the same bytes.
func Example() {
	main()
	// Output:
	// == campus-stationary (3G, 12 Mbps cell, deep carrier buffer) ==
	// protocol        tput (Mbps)  delay mean (ms)   delay p95 (ms)
	// Verus (R=2)            3.37               42              131
	// Verus (R=6)           12.02               82              165
	// TCP Cubic             11.90             2307             3127
	// TCP Vegas              4.10               19               36
	// Sprout                 0.44               16               28
	//
	// == city-driving (3G, 12 Mbps cell, deep carrier buffer) ==
	// protocol        tput (Mbps)  delay mean (ms)   delay p95 (ms)
	// Verus (R=2)            1.54               65              385
	// Verus (R=6)            5.91               74              231
	// TCP Cubic              8.27             3225             7082
	// TCP Vegas              3.22               22               47
	// Sprout                 0.41               18               34
	//
	// Expected shape (paper): Verus ≈ Cubic throughput at a small fraction
	// of its delay; Vegas/Sprout low delay with less throughput.
}
