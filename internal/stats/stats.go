// Package stats provides the summary statistics used throughout the
// evaluation: standard deviation against a known reference value (the
// paper's primary error metric), empirical CDFs, and quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// DeviationFrom computes the paper's error metric over a slice of
// estimates: the root-mean-square deviation from a known correct value
// ("standard deviation from the correct value"). NaN estimates are
// skipped; it returns 0 for an empty slice.
func DeviationFrom(estimates []float64, truth float64) float64 {
	var sum float64
	var n int
	for _, e := range estimates {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			continue
		}
		d := e - truth
		sum += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs around its
// own mean.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
// It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over discrete
// integer-valued observations, as plotted in the paper's Figure 6.
type CDF struct {
	counts map[int]int
	total  int
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF {
	return &CDF{counts: make(map[int]int)}
}

// Observe records one observation of value v.
func (c *CDF) Observe(v int) {
	c.counts[v]++
	c.total++
}

// Total returns the number of observations.
func (c *CDF) Total() int { return c.total }

// At returns P[X <= v].
func (c *CDF) At(v int) float64 {
	if c.total == 0 {
		return 0
	}
	cum := 0
	for val, n := range c.counts {
		if val <= v {
			cum += n
		}
	}
	return float64(cum) / float64(c.total)
}

// Support returns the sorted distinct observed values.
func (c *CDF) Support() []int {
	vals := make([]int, 0, len(c.counts))
	for v := range c.counts {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}

// Points returns (value, P[X<=value]) pairs over the support, suitable
// for plotting.
func (c *CDF) Points() []CDFPoint {
	vals := c.Support()
	pts := make([]CDFPoint, 0, len(vals))
	cum := 0
	for _, v := range vals {
		cum += c.counts[v]
		pts = append(pts, CDFPoint{Value: v, P: float64(cum) / float64(c.total)})
	}
	return pts
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value int
	P     float64
}

// String renders the point as "v:p" for compact table output.
func (p CDFPoint) String() string {
	return fmt.Sprintf("%d:%.3f", p.Value, p.P)
}

// Series is a labelled sequence of (x, y) measurements, one per round
// or per hour, matching one line of one figure in the paper.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds one point to the series.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// TailMean returns the mean of the last k points of the series (or all
// points if it has fewer), useful for reading converged plateaus.
func (s *Series) TailMean(k int) float64 {
	if s.Len() == 0 {
		return 0
	}
	if k > s.Len() {
		k = s.Len()
	}
	return Mean(s.Y[s.Len()-k:])
}

// FirstBelow returns the first x at which y drops to or below
// threshold; ok is false if it never does.
func (s *Series) FirstBelow(threshold float64) (float64, bool) {
	for i := range s.X {
		if s.Y[i] <= threshold {
			return s.X[i], true
		}
	}
	return 0, false
}
