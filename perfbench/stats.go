package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie above a reported tail
// percentile.
const minBeyond = 10

// tail is a tail-latency report: the percentile, its value, and how many
// samples lie strictly above that value.
type tail struct {
	Percentile float64
	Value      float64
	Beyond     int
	Samples    int
}

// nearestRank is the p-th percentile of sorted s by the nearest-rank
// rule: the smallest sample with at least p% of the samples at or below
// it.
func nearestRank(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples strictly above its value. ok is false when no
// ladder percentile qualifies (fewer than about 2·minBeyond samples).
func tailPercentile(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	for _, p := range tailLadder {
		if len(s) == 0 {
			break
		}
		v := nearestRank(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return tail{Percentile: p, Value: v, Beyond: beyond, Samples: len(s)}, true
		}
	}
	return tail{Samples: len(s)}, false
}
