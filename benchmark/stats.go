package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// estimate a tail rather than read off one of the few slowest samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// how many samples lie beyond it. A tail percentile is supported only
// when beyond >= minBeyond.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], len(s) - 1 - idx
}

// tailMean is the mean of the slowest share of xs (at least one
// sample): what the worst requests cost on average. Unlike a single
// order statistic it does not jump when one sample crosses a gap in a
// lumpy distribution.
func tailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, int(share*float64(len(s))))
	return sum(s[len(s)-k:]) / float64(k)
}

// maxSegments is how many equal runs of positions a closed phase is cut
// into; ops_per_s and tail5_ms are medians over the segments, so that a
// burst of noise from the host's other tenants, or the idle client at
// the very end of the phase, spoils one segment and not the metric.
const maxSegments = 8

// segmentsOf is the largest count up to maxSegments that cuts this many
// whole cycles into equal runs, so that every segment holds the same
// multiset of work.
func segmentsOf(cycles int) int {
	for k := min(maxSegments, cycles); k > 1; k-- {
		if cycles%k == 0 {
			return k
		}
	}
	return 1
}

// segmentMedians cuts the latencies (one per position, in position
// order) into len(walls) equal runs, the last taking any remainder, and
// returns the median over the runs of ops per second and of the mean of
// the slowest 5 %, and every run's ops per second.
func segmentMedians(lat []float64, walls []time.Duration) (opsPerS, tail5 float64, rates []float64) {
	segs := len(walls)
	size := len(lat) / segs
	var tails []float64
	for k, wall := range walls {
		seg := lat[k*size : (k+1)*size]
		if k == segs-1 {
			seg = lat[k*size:]
		}
		rates = append(rates, float64(len(seg))/wall.Seconds())
		tails = append(tails, tailMean(seg, 0.05))
	}
	return median(rates), median(tails), rates
}

// supported reports whether a percentile with this many samples beyond
// it may be reported as a tail estimate.
func supported(beyond int) bool { return beyond >= minBeyond }

// median is the middle sample (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// steadySetUp is the set-up time a run reports: the first quartile
// (nearest rank) of its set-ups. Set-ups of one process fall into two
// modes half as long again apart (fresh memory being faulted in, a
// collection landing inside), and their median flips between the modes
// from run to run; the first quartile stays in the undisturbed one.
func steadySetUp(secs []float64) float64 {
	v, _ := percentile(secs, 0.25)
	return v
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the driver judges a metric's run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// usOf converts durations to microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
