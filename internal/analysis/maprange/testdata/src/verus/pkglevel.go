package verus

import "sort"

// weights feeds a package-level initializer.
var weights = map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3}

// total ranges over a map inside a package-level function literal, not a
// function declaration: the body is a function all the same, and the
// float sum's rounding depends on the visit order.
var total = func() float64 {
	var s float64
	for _, w := range weights { // want `map iteration order is randomized`
		s += w
	}
	return s
}()

// keys is the sorted-collect fix in the same position: the literal's own
// body sorts what the range appends.
var keys = func() []string {
	var ks []string
	for k := range weights {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}()
