package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: with fewer, the percentile is one or two outliers, not a
// tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, and refuses
// (ok = false) when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], true
}

// samplesFor is the fewest samples percentile accepts at q.
func samplesFor(q float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method='exclusive': m = n+1,
		// j = floor(i*m/4) clamped to [1, n-1], delta = i*m - j*4,
		// point = (s[j-1]*(4-delta) + s[j]*delta)/4
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind it (0 for counts and rates)
}

type metricList []metric

func (m *metricList) add(name string, v float64, unit string, n int) {
	*m = append(*m, metric{name, v, unit, n})
}

// addPct adds the q-quantile of xs, or records why it cannot.
func (m *metricList) addPct(name string, xs []float64, q float64, unit string) error {
	v, ok := percentile(xs, q)
	if !ok {
		return fmt.Errorf("%s: %d samples, need %d for q=%.2f", name, len(xs), samplesFor(q), q)
	}
	m.add(name, v, unit, len(xs))
	return nil
}

// addTail adds the q-quantile of xs when it has ten samples beyond it,
// and leaves it out otherwise: it is for figures reported beside the
// result line, whose absence does not refuse the run.
func (m *metricList) addTail(name string, xs []float64, q float64, unit string) {
	if v, ok := percentile(xs, q); ok {
		m.add(name, v, unit, len(xs))
	}
}
