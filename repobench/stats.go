package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported as supported: a tail percentile estimated from
// fewer points is mostly noise.
const minTail = 10

// quantile returns the nearest-rank q-quantile of xs (the smallest value
// with at least q·n samples at or below it) and the number of samples
// strictly beyond that rank. xs is not modified. An empty input yields
// (0, 0).
func quantile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// median is the classic median: the middle value, or the mean of the two
// middle values for an even count. An empty input yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for an empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perRound divides a counter delta by the number of rounds it spans
// (0 when no round ran, so an empty window never divides by zero).
func perRound(after, before int64, rounds int) float64 {
	if rounds <= 0 {
		return 0
	}
	return float64(after-before) / float64(rounds)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
