package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// linearly between closest ranks.  It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), the rule the benchmark's spread criterion is stated in.
// With fewer than two samples every cut point is the lone value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return int(math.Floor(float64(n)*(100-p)/100 + 1e-9)) }

// tailPercentile is the highest percentile of a fixed ladder that has
// at least ten samples beyond it among n: the tail a run of n samples
// can report without resting on a handful of outliers.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
