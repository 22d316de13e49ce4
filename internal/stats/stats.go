// Package stats provides the small statistical toolkit the experiment
// harness needs: means, variances, extrema and the five-number summaries
// behind the paper's box plots (Figs. 7 and 15).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a summary of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance (0 for fewer than two points).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MinMax returns the extrema of a non-empty sample.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between order statistics (type-7, the spreadsheet/Numpy default).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0], nil
	}
	if q >= 1 {
		return s[len(s)-1], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1], nil
	}
	return s[lo]*(1-frac) + s[lo+1]*frac, nil
}

// BoxPlot is a five-number summary plus mean and variance — everything a
// box-and-whisker figure shows.
type BoxPlot struct {
	Min, Q1, Median, Q3, Max float64
	Mean, Variance           float64
	N                        int
}

// Summarize computes the box-plot summary of a non-empty sample.
func Summarize(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	var b BoxPlot
	var err error
	if b.Min, b.Max, err = MinMax(xs); err != nil {
		return b, err
	}
	if b.Q1, err = Quantile(xs, 0.25); err != nil {
		return b, err
	}
	if b.Median, err = Quantile(xs, 0.5); err != nil {
		return b, err
	}
	if b.Q3, err = Quantile(xs, 0.75); err != nil {
		return b, err
	}
	b.Mean = Mean(xs)
	b.Variance = Variance(xs)
	b.N = len(xs)
	return b, nil
}
