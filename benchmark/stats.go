package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// classQuantiles maps every class to the q-quantile of its samples: the
// median at 0.5, the fastest at 0.
func classQuantiles(byClass map[string][]float64, q float64) map[string]float64 {
	out := make(map[string]float64, len(byClass))
	for c, xs := range byClass {
		out[c] = quantile(xs, q)
	}
	return out
}

// ratioGeomean is the geometric mean over the classes present on both
// sides of num[c] / den[c].
func ratioGeomean(num, den map[string]float64) float64 {
	var rs []float64
	for c, n := range num {
		if d := den[c]; d > 0 && n > 0 {
			rs = append(rs, n/d)
		}
	}
	return geomean(rs)
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
