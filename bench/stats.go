package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile,
// so a tail never rests on one or two outliers.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, lowest first.
var tailLevels = []float64{50, 75, 90, 95, 99, 99.9}

// nearestRank is the 1-based nearest-rank index of percentile p of n samples.
func nearestRank(n int, p float64) int {
	// p*n/100, not p/100*n: 99.9/100 is just above 0.999 in binary, which
	// would push the rank of p99.9 in 10000 samples from 9990 to 9991.
	r := int(math.Ceil(p * float64(n) / 100))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of ascending samples,
// or 0 when there are none (a result file cannot hold NaN).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// tailStat is a reported tail: the percentile, its value, and the number of
// samples above it.
type tailStat struct {
	P      float64 `json:"percentile"`
	Value  float64 `json:"value"`
	Beyond int     `json:"samples_beyond"`
	N      int     `json:"samples"`
}

// tailOf picks the highest level of tailLevels, at most target, that leaves
// at least minBeyond samples above it. With too few samples for even the
// median it returns the median with ok false.
func tailOf(sorted []float64, target float64) (t tailStat, ok bool) {
	n := len(sorted)
	t = tailStat{P: 50, Value: percentile(sorted, 50), Beyond: n - nearestRank(n, 50), N: n}
	for _, p := range tailLevels {
		beyond := n - nearestRank(n, p)
		if p > target || beyond < minBeyond {
			break
		}
		t, ok = tailStat{P: p, Value: percentile(sorted, p), Beyond: beyond, N: n}, true
	}
	return t, ok
}

// quartiles returns the first quartile, median and third quartile of vals
// with the same interpolation as Python's statistics.quantiles(vals, n=4)
// (the "exclusive" method), so spreads agree with what a reader computes
// from the result files.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median of vals.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// durationsMS converts durations to ascending milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}
