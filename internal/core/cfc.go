// Package core implements the paper's evaluation framework (§2): the cost
// measures A/E/H over workloads, cumulative frequency curves (CFC) of
// per-query elapsed times, log-binned histograms with a timeout bin,
// quality-of-service performance goals expressed as step functions, and
// the improvement ratios AIR/EIR/HIR of §5.2 — plus text rendering for
// every figure style the paper uses.
package core

import (
	"math"
	"sort"
)

// Measure is one per-query cost observation (actual, estimated or
// hypothetical).
type Measure struct {
	SQL      string
	Seconds  float64
	TimedOut bool
}

// CFC is the cumulative (relative) frequency of per-query elapsed times on
// one configuration: CFC(x) = |{q : A(q,C) < x}| / |W|  (paper §2.2).
// Timed-out queries never contribute below the timeout limit.
type CFC struct {
	sorted  []float64 // completed-query times, ascending
	total   int
	timeout float64 // 0 when no timeout was in force
	nTimout int
}

// NewCFC builds the curve from a workload's measures.
func NewCFC(ms []Measure, timeout float64) CFC {
	c := CFC{sorted: make([]float64, 0, len(ms)), timeout: timeout, total: len(ms)}
	for _, m := range ms {
		if m.TimedOut {
			c.nTimout++
			continue
		}
		c.sorted = append(c.sorted, m.Seconds)
	}
	sort.Float64s(c.sorted)
	return c
}

// N returns the number of queries underlying the curve.
func (c CFC) N() int { return c.total }

// Timeouts returns the number of timed-out queries.
func (c CFC) Timeouts() int { return c.nTimout }

// At returns CFC(x): the fraction of queries completing in less than x
// seconds.
func (c CFC) At(x float64) float64 {
	if c.total == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(i) / float64(c.total)
}

// Quantile returns the smallest x with CFC(x) >= p, or +Inf when the
// p-quantile falls among timed-out queries. "Naive folks will use the
// average response time; more sophisticated specifiers will opt for the
// 90th or 95th percentile" (§2.2, quoting Sawyer).
func (c CFC) Quantile(p float64) float64 {
	if c.total == 0 {
		return math.Inf(1)
	}
	k := int(math.Ceil(p * float64(c.total)))
	if k <= 0 {
		k = 1
	}
	if k > len(c.sorted) {
		return math.Inf(1)
	}
	return c.sorted[k-1]
}

// Mean returns the mean completed-query time, counting timeouts at the
// timeout limit (a lower bound, as in the paper's §4.3 totals).
func (c CFC) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	return c.TotalLowerBound() / float64(c.total)
}

// TotalLowerBound is the §4.3 workload total: completed times summed, with
// each timed-out query counted at the timeout limit.
func (c CFC) TotalLowerBound() float64 {
	return c.finishedTotal() + float64(c.nTimout)*c.timeout
}

// finishedTotal sums the completed-query times, ascending.
func (c CFC) finishedTotal() float64 {
	var s float64
	for _, t := range c.sorted {
		s += t
	}
	return s
}

// Dominates reports first-order stochastic dominance: this curve is
// everywhere at or above other, and strictly above somewhere. The paper
// (§2.2) reads configuration comparison as exactly this relation.
func (c CFC) Dominates(other CFC) bool {
	xs := append(append([]float64(nil), c.sorted...), other.sorted...)
	xs = append(xs, math.Max(c.timeout, other.timeout))
	strict := false
	for _, x := range xs {
		a, b := c.At(x), other.At(x)
		// Evaluate just above x too, since At is left-continuous.
		a2, b2 := c.At(nextAfter(x)), other.At(nextAfter(x))
		if a < b || a2 < b2 {
			return false
		}
		if a > b || a2 > b2 {
			strict = true
		}
	}
	return strict
}

func nextAfter(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

// Goal is a performance goal: a monotone step function G; a configuration
// satisfies the goal iff its CFC is pointwise above G (paper Example 2).
type Goal struct {
	Name  string
	Steps []GoalStep
}

// GoalStep declares G(x) = Frac for x in [X, nextX).
type GoalStep struct {
	X    float64 // seconds
	Frac float64 // required cumulative fraction in (0,1]
}

// Satisfied reports whether CFC > G pointwise. Since G is a right-open
// step function and the CFC is nondecreasing, it suffices to check each
// step's left edge... more precisely: for the step starting at X with
// value Frac, the constraint binds hardest just after X, where the CFC is
// smallest on the step; we therefore check CFC(X+) >= Frac... but the CFC
// may jump inside the step, so the binding point is X itself (approached
// from the right).
//
// Goal checking is an observation that leaves c unchanged; tuners call
// it from read paths and must be able to do so without locking or
// mutation. TestCFCPermutationInvariant pins this.
func (g Goal) Satisfied(c CFC) bool {
	for _, st := range g.Steps {
		if c.At(nextAfter(st.X)) < st.Frac {
			return false
		}
	}
	return true
}

// Satisfaction grades the verdict: the fraction of goal steps the curve
// meets, in [0, 1]. Satisfied(c) ⇔ Satisfaction(c) == 1. An online tuner
// tracks this level per window: it degrades stepwise as a configuration
// ages and recovers after a successful retune.
//
// Same contract as Satisfied: grading a curve against a goal is
// effect-free by definition, and the same test pins it.
func (g Goal) Satisfaction(c CFC) float64 {
	if len(g.Steps) == 0 {
		return 1
	}
	met := 0
	for _, st := range g.Steps {
		if c.At(nextAfter(st.X)) >= st.Frac {
			met++
		}
	}
	return float64(met) / float64(len(g.Steps))
}

// Digest is one set of measures graded once against a goal: the figures
// every window owner (the autopilot's reports, a gateway tenant's sliding
// window, the autoscaler's windows) reads. MeanSeconds is CFC.Mean, with
// timeouts at the limit; FinishedMean is the mean over completed queries
// only (0 when none completed); a quantile is +Inf where CFC.Quantile is.
type Digest struct {
	Queries, Timeouts         int
	MeanSeconds, FinishedMean float64
	P50, P95, P99             float64
	Satisfied                 bool
	Satisfaction              float64
}

// DigestOf builds the CFC of ms once and reads every Digest field from it.
//
// Grading measures is an observation, like Satisfied: ms is left as it
// was (TestCFCPermutationInvariant).
func DigestOf(ms []Measure, g Goal, timeout float64) Digest {
	c := NewCFC(ms, timeout)
	d := Digest{
		Queries:      c.N(),
		Timeouts:     c.Timeouts(),
		MeanSeconds:  c.Mean(),
		P50:          c.Quantile(0.50),
		P95:          c.Quantile(0.95),
		P99:          c.Quantile(0.99),
		Satisfied:    g.Satisfied(c),
		Satisfaction: g.Satisfaction(c),
	}
	if n := len(c.sorted); n > 0 {
		d.FinishedMean = c.finishedTotal() / float64(n)
	}
	return d
}

// Example2Goal is the paper's Example 2: 10% of queries under 10 seconds,
// 50% under one minute, 90% before the 30-minute timeout.
func Example2Goal() Goal {
	return Goal{
		Name: "Example2",
		Steps: []GoalStep{
			{X: 10, Frac: 0.10},
			{X: 60, Frac: 0.50},
			{X: 1800, Frac: 0.90},
		},
	}
}

// ImprovementRatio is the paper's §5.2 per-query ratio between two
// configurations: IR(q) = cost(q, Ci) / cost(q, Cj). Ratios > 1 favor Cj.
// Pairs where either side timed out are skipped, as in the paper
// ("for simplicity, actual improvements involving timeout queries are not
// considered").
func ImprovementRatio(ci, cj []Measure) []float64 {
	n := len(ci)
	if len(cj) < n {
		n = len(cj)
	}
	var out []float64
	for i := 0; i < n; i++ {
		if ci[i].TimedOut || cj[i].TimedOut {
			continue
		}
		if cj[i].Seconds <= 0 {
			continue
		}
		out = append(out, ci[i].Seconds/cj[i].Seconds)
	}
	return out
}
