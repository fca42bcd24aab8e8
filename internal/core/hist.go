package core

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-scale histogram of per-query times with a dedicated
// timeout bin, matching the figures' presentation (Figure 1: "we define
// the bins using a logarithmic scale ... and report all timeout queries on
// a single bin labeled t_out").
type Histogram struct {
	// Edges[i] is the left edge of bin i (seconds); bin i covers
	// [Edges[i], Edges[i+1]); the last counted bin is the timeout bin.
	Edges  []float64
	Counts []int
	TOut   int
	Total  int
}

// NewHistogram bins the measures into binsPerDecade log bins spanning
// [lo, timeout).
func NewHistogram(ms []Measure, lo, timeout float64, binsPerDecade int) Histogram {
	if lo <= 0 {
		lo = 1
	}
	if binsPerDecade < 1 {
		binsPerDecade = 1
	}
	h := Histogram{Total: len(ms)}
	for x := lo; x < timeout*1.0000001; x *= math.Pow(10, 1/float64(binsPerDecade)) {
		h.Edges = append(h.Edges, x)
	}
	h.Counts = make([]int, len(h.Edges))
	for _, m := range ms {
		if m.TimedOut {
			h.TOut++
			continue
		}
		i := 0
		for i < len(h.Edges)-1 && m.Seconds >= h.Edges[i+1] {
			i++
		}
		if m.Seconds < h.Edges[0] {
			i = 0
		}
		h.Counts[i]++
	}
	return h
}

// Render draws the histogram with an overlaid cumulative-frequency column,
// the textual analogue of the paper's Figures 1 and 2.
func (h Histogram) Render(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (n=%d, t_out=%d)\n", title, h.Total, h.TOut)
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if h.TOut > maxC {
		maxC = h.TOut
	}
	cum := 0
	for i, c := range h.Counts {
		cum += c
		bar := strings.Repeat("#", c*40/maxC)
		fmt.Fprintf(&sb, "  %8s |%-40s %3d  cum %5.1f%%\n",
			fmtSeconds(h.Edges[i]), bar, c, 100*float64(cum)/math.Max(1, float64(h.Total)))
	}
	cum += h.TOut
	bar := strings.Repeat("#", h.TOut*40/maxC)
	fmt.Fprintf(&sb, "  %8s |%-40s %3d  cum %5.1f%%\n",
		"t_out", bar, h.TOut, 100*float64(cum)/math.Max(1, float64(h.Total)))
	return sb.String()
}

func fmtSeconds(x float64) string {
	switch {
	case x >= 100:
		return fmt.Sprintf("%.0fs", x)
	case x >= 1:
		return fmt.Sprintf("%.1fs", x)
	default:
		return fmt.Sprintf("%.2fs", x)
	}
}

// RatioHistogram bins improvement ratios into decade bins centered on 1
// (the paper's Figure 11: how many queries are 10x, 100x, ... faster in
// one configuration than the other).
type RatioHistogram struct {
	// Decades[i] counts ratios in [10^(i+MinExp), 10^(i+MinExp+1)); the
	// bin containing exponent 0 counts "no improvement" (ratio ≈ 1).
	MinExp  int
	Decades []int
	Total   int
}

// NewRatioHistogram builds the decade histogram over the ratios.
func NewRatioHistogram(ratios []float64) RatioHistogram {
	minE, maxE := 0, 0
	exps := make([]int, 0, len(ratios))
	for _, r := range ratios {
		if r <= 0 {
			continue
		}
		e := int(math.Floor(math.Log10(r) + 0.5)) // nearest decade
		exps = append(exps, e)
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	h := RatioHistogram{MinExp: minE, Decades: make([]int, maxE-minE+1), Total: len(exps)}
	for _, e := range exps {
		h.Decades[e-minE]++
	}
	return h
}

// Count returns how many ratios round to decade 10^exp.
func (h RatioHistogram) Count(exp int) int {
	i := exp - h.MinExp
	if i < 0 || i >= len(h.Decades) {
		return 0
	}
	return h.Decades[i]
}

// Render draws the ratio histogram (Figure 11 style). Ratios below one
// mean the first configuration is faster; above one, the second.
func (h RatioHistogram) Render(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  (n=%d)\n", title, h.Total)
	maxC := 1
	for _, c := range h.Decades {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Decades {
		exp := h.MinExp + i
		label := "1 (none)"
		if exp != 0 {
			label = fmt.Sprintf("10^%d", exp)
		}
		fmt.Fprintf(&sb, "  %8s |%-40s %d\n", label, strings.Repeat("#", c*40/maxC), c)
	}
	return sb.String()
}
