package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile (0..1) of ascending s at
// position p·(n+1), the exclusive method Python's
// statistics.quantiles uses, clamped to the sample's range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// tail returns the highest percentile of ascending s that still has at
// least ten samples beyond it, and its value; with fewer than twenty
// samples no percentile above the median qualifies and it reports the
// median.
func tail(s []float64) (pct, value float64) {
	n := len(s)
	if n < 20 {
		return 50, quantile(s, 0.5)
	}
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}

// repeat calls f until budget has elapsed and at least min calls were
// made (at most max), returning each call's duration.
func repeat(budget time.Duration, min, max int, f func()) []time.Duration {
	var out []time.Duration
	start := time.Now()
	for len(out) < max && (len(out) < min || time.Since(start) < budget) {
		t0 := time.Now()
		f()
		out = append(out, time.Since(t0))
	}
	return out
}

func ns(d time.Duration) float64 { return float64(d) }
