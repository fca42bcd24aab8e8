package core

import (
	"fmt"
	"math"
	"strings"
)

// RenderCurves draws several cumulative-frequency curves on one log-x
// chart — the textual analogue of the paper's Figures 3 through 10. Each
// curve gets a marker character; the y axis is cumulative fraction and the
// x axis spans [lo, timeout] log-scaled, with a final t_out column.
func RenderCurves(title string, labels []string, curves []CFC, lo, timeout float64) string {
	const width, height = 64, 16
	if lo <= 0 {
		lo = 1
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	xAt := func(col int) float64 {
		f := float64(col) / float64(width-1)
		return lo * math.Pow(timeout/lo, f)
	}
	for ci, c := range curves {
		mk := markers[ci%len(markers)]
		for col := 0; col < width; col++ {
			frac := c.At(xAt(col))
			row := height - 1 - int(frac*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = mk
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for i, l := range labels {
		if i < len(curves) {
			fmt.Fprintf(&sb, "  %c %s (t_out=%d/%d)", markers[i%len(markers)], l,
				curves[i].Timeouts(), curves[i].N())
		}
	}
	sb.WriteString("\n")
	for r, row := range grid {
		frac := 100 * float64(height-1-r) / float64(height-1)
		fmt.Fprintf(&sb, "%5.0f%% |%s|\n", frac, string(row))
	}
	// X axis: decade tick marks.
	axis := []byte(strings.Repeat("-", width))
	labelsRow := []byte(strings.Repeat(" ", width+8))
	for d := math.Ceil(math.Log10(lo)); d <= math.Log10(timeout); d++ {
		x := math.Pow(10, d)
		col := int(math.Log(x/lo) / math.Log(timeout/lo) * float64(width-1))
		if col >= 0 && col < width {
			axis[col] = '+'
			lab := fmtSeconds(x)
			for i := 0; i < len(lab) && col+8+i < len(labelsRow); i++ {
				labelsRow[col+8+i] = lab[i]
			}
		}
	}
	fmt.Fprintf(&sb, "       +%s+\n", string(axis))
	fmt.Fprintf(&sb, "%s\n", string(labelsRow))
	return sb.String()
}

// SummaryTable renders quantile summaries for several configurations.
func SummaryTable(labels []string, curves []CFC) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %9s %9s %9s %9s %7s %12s\n",
		"config", "p25", "median", "p75", "p90", "t_out", "total(lb)")
	for i, l := range labels {
		c := curves[i]
		fmt.Fprintf(&sb, "%-14s %9s %9s %9s %9s %4d/%-3d %11.0fs\n",
			l, fq(c.Quantile(0.25)), fq(c.Quantile(0.5)), fq(c.Quantile(0.75)),
			fq(c.Quantile(0.9)), c.Timeouts(), c.N(), c.TotalLowerBound())
	}
	return sb.String()
}

func fq(x float64) string {
	if math.IsInf(x, 1) {
		return "t_out"
	}
	return fmtSeconds(x)
}
