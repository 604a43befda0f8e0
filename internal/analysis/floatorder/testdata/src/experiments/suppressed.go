package experiments

import "math"

// Annotated suppresses the fused multiply-add diagnostic with a justified
// claim.
func Annotated(a, b, c float64) float64 {
	//lint:floatorder order-invariant -- fixture: pretend this value is only logged, never digested
	return math.FMA(a, b, c)
}
