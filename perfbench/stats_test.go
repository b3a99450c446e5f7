package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileRefusesThinTails(t *testing.T) {
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, ok := percentile(seq(1000), 0.99)
	if !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("median of 19 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing")
	}
	if samplesFor(0.99) != 1000 || samplesFor(0.5) != 20 {
		t.Errorf("samplesFor = %d, %d; want 1000, 20", samplesFor(0.99), samplesFor(0.5))
	}
}

func TestPercentileIgnoresOrder(t *testing.T) {
	xs := []float64{}
	for i := 0; i < 40; i++ {
		xs = append(xs, float64((i*17)%40))
	}
	if v, _ := percentile(xs, 0.5); v != 19 {
		t.Errorf("median = %v, want 19", v)
	}
}

// Quartiles match Python's statistics.quantiles(xs, n=4), so the
// repeat mode's spreads read the same as a check written in Python.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{1.5, 2.5, 10, 4, 7, 8, 9, 11, 0.3, 6.6}, [3]float64{2.25, 6.8, 9.25}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, m, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, m, q3, c.want)
				break
			}
		}
	}
}
