package sandbox

import (
	"slices"
	"sort"
)

func bad(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appending to keys while ranging over a map"
	}
	return keys
}

func badValues(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		if v > 0 {
			vals = append(vals, v) // want "appending to vals while ranging over a map"
		}
	}
	return vals
}

// A search reads the slice without ordering it.
func badSearched(m map[string]int) int {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "appending to keys while ranging over a map"
	}
	return sort.SearchStrings(keys, "x")
}

func badPackageLevel(m map[string]bool) {
	for k := range m {
		global = append(global, k) // want "appending to global while ranging over a map"
	}
}

var global []string

func sortedAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // redeemed by the sort below
	}
	sort.Strings(keys)
	return keys
}

func slicesSortAfter(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v) // redeemed by slices.Sort
	}
	slices.Sort(vals)
	return vals
}

func sortSliceAfter(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // redeemed by sort.Slice
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func sortConverted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // redeemed even through a conversion
	}
	sort.Sort(sort.StringSlice(keys))
	return keys
}

func mapIndexTarget(m map[string]int, out map[string][]int) {
	for k, v := range m {
		out[k] = append(out[k], v) // per-key order: iteration order is irrelevant
	}
}

func declaredInside(m map[string]int) int {
	total := 0
	for _, v := range m {
		s := []int{}
		s = append(s, v) // s is loop-local: no cross-iteration accumulation
		total += s[0]
	}
	return total
}

func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x) // ranging a slice preserves order
	}
	return out
}

func channelRange(ch chan int) []int {
	var out []int
	for v := range ch {
		out = append(out, v) // channels deliver in send order
	}
	return out
}
