// Package stats provides the summary statistics used by the experiment
// harness: sample mean, standard deviation, and Student-t 95% confidence
// intervals over multiple seeded runs, following the paper's methodology
// of plotting confidence intervals from perturbed runs.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a set of runs of one configuration. It crosses
// the sweep service's HTTP API inside patch.Summary, so its JSON field
// names are explicit and stable.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev,omitempty"`
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64 `json:"ci95,omitempty"`
}

// tTable holds two-sided 95% Student-t critical values for small sample
// sizes (df = n-1) through df = 30; beyond the table a monotone
// Cornish-Fisher tail (z + (z³+z)/(4·df) with z = 1.960) bridges to the
// normal limit, so the critical value decreases continuously toward
// 1.960 instead of jumping there at the table edge.
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCrit returns the 95% two-sided critical value for df degrees of
// freedom.
func tCrit(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df < len(tTable) {
		return tTable[df]
	}
	// First-order Cornish-Fisher expansion of the t quantile about the
	// normal quantile z: t ≈ z + (z³+z)/(4·df). Strictly decreasing in
	// df, continuous with the table (df=31 → 2.0365 < 2.042), limit z.
	const z = 1.960
	return z + (z*z*z+z)/(4*float64(df))
}

// Summarize computes the summary of a sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	ci := tCrit(n-1) * sd / math.Sqrt(float64(n))
	return Summary{N: n, Mean: mean, StdDev: sd, CI95: ci}
}

// String renders "mean ± ci".
func (s Summary) String() string {
	if s.N <= 1 {
		return fmt.Sprintf("%.4g", s.Mean)
	}
	return fmt.Sprintf("%.4g ± %.2g", s.Mean, s.CI95)
}

// Ratio returns a/b, guarding the denominator.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
