package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample such that at least a q share of the samples are less
// than or equal to it. xs must be sorted ascending and non-empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// beyond reports how many samples lie strictly above the nearest-rank
// q-quantile's position, the count that decides whether a percentile is
// supported by the sample (at least ten beyond it).
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// passTimes returns the time of every pass that a cyclic sequence of
// runs over n inputs holds: the sum of each n consecutive runs. As the
// runs visit the inputs in a fixed rotation, every such window holds one
// run of each input, so a phase of k full passes yields (k-1)n+1 pass
// times instead of k.
func passTimes(runs []float64, n int) []float64 {
	var out []float64
	for i := n; i <= len(runs); i++ {
		var sum float64
		for _, r := range runs[i-n : i] {
			sum += r
		}
		out = append(out, sum)
	}
	return out
}
