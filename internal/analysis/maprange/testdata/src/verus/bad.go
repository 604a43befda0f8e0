// Package verus is a maprange fixture: a simulation package where a map
// range must sort what it collects before anything reads it.
package verus

import "sort"

// MeanDelay accumulates floats over a map — the classic digest-drift bug
// (float addition does not reassociate).
func MeanDelay(points map[float64]float64) float64 {
	var sum float64
	var n int
	for _, d := range points { // want `map iteration order is randomized`
		sum += d
		n++
	}
	return sum / float64(n)
}

// UnsortedKeys collects map keys by append and never sorts them —
// order-sensitive output.
func UnsortedKeys(m map[int]int) []int {
	var out []int
	for k := range m { // want `map iteration order is randomized`
		out = append(out, k)
	}
	return out
}

// FirstOver exits early, which observes order.
func FirstOver(m map[int]int, cut int) int {
	for k, v := range m { // want `map iteration order is randomized`
		if v > cut {
			return k
		}
	}
	return -1
}

// Count is a commutative, float-free accumulation; the analyzer does not
// try to prove that, so it is flagged like any other body.
func Count(m map[int]float64, cut float64) int {
	var n int
	for _, v := range m { // want `map iteration order is randomized`
		if v < 0 {
			continue
		}
		if v > cut {
			n++
		}
	}
	return n
}

// Flags is a commutative bitwise accumulation under if/else, flagged too.
func Flags(m map[int]uint64) uint64 {
	var bits uint64
	var evens int
	for k, v := range m { // want `map iteration order is randomized`
		if k%2 == 0 {
			evens++
		} else {
			bits |= v
		}
	}
	return bits + uint64(evens)
}

// SortedSum is the canonical fix and must not be flagged: the collection
// loop's order is destroyed by the sort before anything reads it.
func SortedSum(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// LeakBeforeSort reads the collected slice before sorting it, so the
// first key is whichever the map visited first.
func LeakBeforeSort(m map[int]int) (int, []int) {
	var keys []int
	for k := range m { // want `map iteration order is randomized`
		keys = append(keys, k)
	}
	first := keys[0]
	sort.Ints(keys)
	return first, keys
}

// Shadowed sorts a different slice of the same name; the collected one is
// returned in map order.
func Shadowed(m map[int]int) []int {
	var keys []int
	for k := range m { // want `map iteration order is randomized`
		keys = append(keys, k)
	}
	if len(m) > 1 {
		keys := []int{2, 1}
		sort.Ints(keys)
	}
	return keys
}
