package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomMeasures draws a workload of n measures with log-uniform times
// and a timeout probability, mimicking the heavy-tailed family runs.
func randomMeasures(rng *rand.Rand, n int, timeout float64) []Measure {
	ms := make([]Measure, n)
	for i := range ms {
		if rng.Float64() < 0.1 {
			ms[i] = Measure{SQL: "q", Seconds: timeout, TimedOut: true}
			continue
		}
		// 10^[-2, 3): 10ms .. 1000s, under the 1800s timeout.
		ms[i] = Measure{SQL: "q", Seconds: pow10(rng.Float64()*5 - 2)}
	}
	return ms
}

func pow10(x float64) float64 {
	v := 1.0
	for ; x >= 1; x-- {
		v *= 10
	}
	for ; x < 0; x++ {
		v /= 10
	}
	// x in [0,1): linear interpolation is fine for test data.
	return v * (1 + 9*x/10)
}

// TestCFCDominanceTransitive checks the §2.2 comparison relation is a
// strict partial order on random curves: transitive and irreflexive.
func TestCFCDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const timeout = 1800.0
	curves := make([]CFC, 30)
	for i := range curves {
		curves[i] = NewCFC(randomMeasures(rng, 50, timeout), timeout)
	}
	for i, a := range curves {
		if a.Dominates(a) {
			t.Fatalf("curve %d dominates itself", i)
		}
		for j, b := range curves {
			if !a.Dominates(b) {
				continue
			}
			if b.Dominates(a) {
				t.Fatalf("curves %d and %d dominate each other", i, j)
			}
			for k, c := range curves {
				if b.Dominates(c) && !a.Dominates(c) {
					t.Fatalf("dominance not transitive: %d>%d, %d>%d, but not %d>%d", i, j, j, k, i, k)
				}
			}
		}
	}
}

// TestCFCPermutationInvariant checks the curve is a pure function of the
// multiset of measures: any permutation yields an identical CFC, digest
// and dominance relations — the property that lets the parallel
// runner's order-stable output stand in for the sequential one.
func TestCFCPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const timeout = 1800.0
	base := randomMeasures(rng, 64, timeout)
	ref := NewCFC(base, timeout)
	other := NewCFC(randomMeasures(rng, 64, timeout), timeout)
	goal := Example2Goal()
	refDigest := DigestOf(base, goal, timeout)
	for trial := 0; trial < 20; trial++ {
		perm := append([]Measure(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		c := NewCFC(perm, timeout)
		if !reflect.DeepEqual(ref, c) {
			t.Fatalf("trial %d: permuted CFC differs", trial)
		}
		if ref.Dominates(other) != c.Dominates(other) || other.Dominates(ref) != other.Dominates(c) {
			t.Fatalf("trial %d: dominance changed under permutation", trial)
		}
		permBefore := append([]Measure(nil), perm...)
		if d := DigestOf(perm, goal, timeout); d != refDigest {
			t.Fatalf("trial %d: permuted digest %+v differs from %+v", trial, d, refDigest)
		}
		if !reflect.DeepEqual(perm, permBefore) {
			t.Fatalf("trial %d: DigestOf changed its measures", trial)
		}
	}

	// Every digest field is the matching CFC or Goal read.
	want := Digest{
		Queries:      ref.N(),
		Timeouts:     ref.Timeouts(),
		MeanSeconds:  ref.Mean(),
		FinishedMean: NewCFC(base, 0).TotalLowerBound() / float64(ref.N()-ref.Timeouts()),
		P50:          ref.Quantile(0.50),
		P95:          ref.Quantile(0.95),
		P99:          ref.Quantile(0.99),
		Satisfied:    goal.Satisfied(ref),
		Satisfaction: goal.Satisfaction(ref),
	}
	if refDigest != want {
		t.Fatalf("digest %+v, want the CFC/Goal reads %+v", refDigest, want)
	}
	// Grading is an observation: the CFC shares its backing array with
	// every copy, so a write through it would reach the caller's curve.
	if !reflect.DeepEqual(ref, NewCFC(base, timeout)) {
		t.Fatal("Satisfied or Satisfaction changed the CFC it graded")
	}
	empty := DigestOf(nil, goal, timeout)
	if empty.Queries != 0 || !math.IsInf(empty.P50, 1) || !math.IsInf(empty.P95, 1) || !math.IsInf(empty.P99, 1) ||
		empty.MeanSeconds != 0 || empty.FinishedMean != 0 {
		t.Fatalf("empty digest = %+v, want 0 queries, +Inf quantiles, 0 means", empty)
	}
}

// TestHistogramConservesCount checks log-binning loses no queries: every
// measure lands in exactly one bin or the timeout bin (Figure 1's
// presentation).
func TestHistogramConservesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const timeout = 1800.0
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		ms := randomMeasures(rng, n, timeout)
		for _, bpd := range []int{1, 2, 4} {
			h := NewHistogram(ms, 1, timeout, bpd)
			sum := h.TOut
			for _, c := range h.Counts {
				sum += c
			}
			if sum != h.Total || h.Total != n {
				t.Fatalf("trial %d bpd %d: binned %d of %d measures", trial, bpd, sum, n)
			}
		}
	}
}

// TestRatioHistogramConservesCount checks the AIR/EIR/HIR decade binning
// (Figure 11): every usable ratio lands in exactly one decade, and the
// skipped pairs are exactly the timeout-tainted ones.
func TestRatioHistogramConservesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const timeout = 1800.0
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(150)
		ci := randomMeasures(rng, n, timeout)
		cj := randomMeasures(rng, n, timeout)
		ratios := ImprovementRatio(ci, cj)
		skipped := 0
		for i := 0; i < n; i++ {
			if ci[i].TimedOut || cj[i].TimedOut {
				skipped++
			}
		}
		if len(ratios)+skipped != n {
			t.Fatalf("trial %d: %d ratios + %d skipped != %d pairs", trial, len(ratios), skipped, n)
		}
		h := NewRatioHistogram(ratios)
		sum := 0
		for _, c := range h.Decades {
			sum += c
		}
		if sum != h.Total || h.Total != len(ratios) {
			t.Fatalf("trial %d: decades sum %d, total %d, ratios %d", trial, sum, h.Total, len(ratios))
		}
	}
}
