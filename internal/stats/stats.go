package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample. The JSON tags give it a
// stable wire form for the experiment-runner output files.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Summarize computes a Summary of xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Stddev: math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    Percentile(sorted, 0.50),
		P90:    Percentile(sorted, 0.90),
		P99:    Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 1) of a sorted sample using
// linear interpolation between closest ranks. The input must be sorted.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MeanInts is a convenience mean over integer samples.
func MeanInts(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// MaxInts returns the maximum of xs, or 0 when xs is empty.
func MaxInts(xs []int) int {
	maxV := 0
	for i, x := range xs {
		if i == 0 || x > maxV {
			maxV = x
		}
	}
	return maxV
}
