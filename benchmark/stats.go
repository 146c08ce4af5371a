package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it started, relative to the start of
// the measured window, and how long it took.
type sample struct {
	at  time.Duration
	dur time.Duration
}

// series is the samples of one request kind on one connection.
type series []sample

// percentile returns the q-quantile (0..1) of sorted, by nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// durations returns the samples' durations in unit (e.g. time.Microsecond),
// sorted ascending.
func durations(ss series, unit time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// windowedP99 cuts the window into subWindows equal slices by start time
// and returns the median of the slices' p99s; slices with too few samples
// for a p99 (under 100) fall back to one p99 over everything.
func windowedP99(ss series, window time.Duration, unit time.Duration) float64 {
	slices := make([]series, subWindows)
	for _, s := range ss {
		i := int(int64(s.at) * subWindows / int64(window))
		if i >= 0 && i < subWindows {
			slices[i] = append(slices[i], s)
		}
	}
	var p99s []float64
	for _, sl := range slices {
		if len(sl) < 100 {
			return percentile(durations(ss, unit), 0.99)
		}
		p99s = append(p99s, percentile(durations(sl, unit), 0.99))
	}
	return median(p99s)
}

// windowedRate returns completions per second as the interquartile mean
// over the window's slices: the slowest and fastest quarter of the slices
// are dropped, which discards outside stalls as a median would, and the
// rest are averaged, which a median of ten would not do.
func windowedRate(starts []time.Duration, window time.Duration) float64 {
	counts := make([]float64, subWindows)
	for _, at := range starts {
		i := int(int64(at) * subWindows / int64(window))
		if i >= 0 && i < subWindows {
			counts[i]++
		}
	}
	per := window.Seconds() / subWindows
	sort.Float64s(counts)
	mid := counts[subWindows/4 : subWindows-subWindows/4]
	sum := 0.0
	for _, c := range mid {
		sum += c
	}
	return sum / float64(len(mid)) / per
}

// tailLabel names the highest percentile that has at least ten samples
// beyond it, and returns it with its value.
func tailLabel(sorted []float64) (string, float64) {
	for _, t := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(sorted))*(1-t.q) >= 10 {
			return t.label, percentile(sorted, t.q)
		}
	}
	return "p50", percentile(sorted, 0.5)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance check of the benchmark uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// relIQR is the interquartile range as a share of the median.
func relIQR(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
