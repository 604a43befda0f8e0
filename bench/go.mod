// The benchmark is a module of its own so that the root module's build and
// tests never depend on it; it reaches the simulator's packages through the
// replace directive below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
