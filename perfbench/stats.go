package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile; with fewer, the percentile says nothing about the tail.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count). It panics on an empty sample: every caller measures at
// least once.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile estimates the p-quantile of xs (0 < p < 1) as the mean of
// the order statistics within ±5% of n ranks of the nearest rank. A single
// order statistic jumps whenever a class boundary of the sample sits at
// the rank (fig11_synth's points split in half between cheap and costly
// designs, right at the median); the window averages across it. It
// refuses when fewer than minBeyond samples lie beyond the nearest rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d",
			p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := n / 20
	lo, hi := max(rank-1-half, 0), min(rank-1+half, n-1)
	var sum float64
	for _, v := range s[lo : hi+1] {
		sum += v
	}
	return sum / float64(hi-lo+1), nil
}

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values by name.
type metrics map[string]metric

// set records one metric, rejecting malformed names and non-finite values.
func (m metrics) set(name, unit string, v float64) {
	if !metricName.MatchString(name) || len(name) > 64 {
		panic("perfbench: bad metric name " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("perfbench: non-finite value for " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
