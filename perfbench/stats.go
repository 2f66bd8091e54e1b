package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (numpy's default). It does not
// modify xs; it returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones a reader recomputes.
// It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	if n < 2 {
		if n == 1 {
			q = [3]float64{s[0], s[0], s[0]}
		}
		return q
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return math.NaN()
	}
	return (q[2] - q[0]) / q[1]
}

// latencyLine describes a latency sample: its count, its median, and the
// highest of p90/p99 that has at least ten samples beyond it (none below
// 100 samples, where a high percentile would be no tail).
func latencyLine(name string, xs []float64) string {
	line := fmt.Sprintf("%s: %d samples, p50 %.4f ms", name, len(xs), percentile(xs, 50))
	switch {
	case len(xs) >= 1000:
		line += fmt.Sprintf(", p99 %.4f ms", percentile(xs, 99))
	case len(xs) >= 100:
		line += fmt.Sprintf(", p90 %.4f ms", percentile(xs, 90))
	}
	return line
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
