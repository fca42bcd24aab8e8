package autopilot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// FamilyCount is one family's share of a window's traffic.
type FamilyCount struct {
	Family string
	Count  int
}

// WindowReport is the observer's digest of one window of live traffic:
// the per-window CFC collapsed to its headline quantiles, the goal
// verdict (boolean and graded), and the estimate-vs-actual ratio
// quantiles that track how far the optimizer's model has drifted from
// the configuration actually serving the queries (the paper's E/A
// analysis, taken online). Everything here derives from the simulated
// clock, so reports are byte-identical across runner parallelism.
type WindowReport struct {
	Window  int
	Config  string
	Queries int
	Mix     []FamilyCount

	MeanSeconds   float64
	P50, P95, P99 float64
	Timeouts      int

	// EAMedian and EAP90 are quantiles of E(q,C)/A(q,C) over the
	// window's completed queries.
	EAMedian, EAP90 float64

	Satisfied    bool
	Satisfaction float64

	// Trigger is the controller's decision made on seeing this window
	// ("" when it left the configuration alone).
	Trigger string

	// HypoRatio, when nonzero, is predicted/actual mean seconds for the
	// first full window served by a freshly applied configuration — the
	// online analogue of the paper's H-vs-A comparison.
	HypoRatio float64
}

// observer turns raw window traffic into WindowReports.
type observer struct {
	goal     core.Goal
	timeout  float64
	famOrder []string
}

// observe digests one window. ms and est are parallel to qs.
func (o *observer) observe(w int, cfgName string, qs []workload.Query, ms, est []core.Measure) WindowReport {
	cfc := core.NewCFC(ms, o.timeout)
	rep := WindowReport{
		Window:       w,
		Config:       cfgName,
		Queries:      len(ms),
		Mix:          countMix(qs, o.famOrder),
		MeanSeconds:  cfc.Mean(),
		P50:          cfc.Quantile(0.50),
		P95:          cfc.Quantile(0.95),
		P99:          cfc.Quantile(0.99),
		Timeouts:     cfc.Timeouts(),
		Satisfied:    o.goal.Satisfied(cfc),
		Satisfaction: o.goal.Satisfaction(cfc),
	}
	ratios := make([]float64, 0, len(ms))
	for i := range ms {
		if i >= len(est) || ms[i].TimedOut || ms[i].Seconds <= 0 {
			continue
		}
		ratios = append(ratios, est[i].Seconds/ms[i].Seconds)
	}
	sort.Float64s(ratios)
	rep.EAMedian = quantile(ratios, 0.50)
	rep.EAP90 = quantile(ratios, 0.90)
	return rep
}

// countMix tallies the window's queries per family, in famOrder.
func countMix(qs []workload.Query, famOrder []string) []FamilyCount {
	counts := make(map[string]int)
	for _, q := range qs {
		counts[q.Family]++
	}
	out := make([]FamilyCount, len(famOrder))
	for i, f := range famOrder {
		out[i] = FamilyCount{Family: f, Count: counts[f]}
	}
	return out
}

// proportions converts a mix to normalized shares in famOrder.
func proportions(mix []FamilyCount) []float64 {
	total := 0
	for _, fc := range mix {
		total += fc.Count
	}
	out := make([]float64, len(mix))
	if total == 0 {
		return out
	}
	for i, fc := range mix {
		out[i] = float64(fc.Count) / float64(total)
	}
	return out
}

// quantile reads the p-quantile of an ascending slice (0 when empty).
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p * float64(len(sorted))))
	if k <= 0 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// fmtSec renders a simulated-seconds figure at fixed width; timed-out
// quantiles (+Inf) print as t/out.
func fmtSec(x float64) string {
	if math.IsInf(x, 1) {
		return "  t/out"
	}
	return fmt.Sprintf("%7.2f", x)
}

func fmtMix(mix []FamilyCount) string {
	total := 0
	for _, fc := range mix {
		total += fc.Count
	}
	parts := make([]string, len(mix))
	for i, fc := range mix {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(fc.Count) / float64(total)
		}
		parts[i] = fmt.Sprintf("%s:%02.0f%%", fc.Family, pct)
	}
	return strings.Join(parts, " ")
}

// RenderTable prints the per-window run as the drift experiment's table
// artifact. Retune records appear under the window whose report
// triggered them. Wall-clock fields are deliberately omitted: the table
// must be byte-identical for a given seed at any parallelism.
func RenderTable(reports []WindowReport, retunes []RetuneRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-8s %-24s %4s %8s %8s %8s %4s %7s %5s %5s  %s\n",
		"win", "config", "mix", "n", "p50", "p95", "p99", "t/o", "E/A q50", "goal", "level", "trigger")
	byWindow := make(map[int][]RetuneRecord)
	for _, r := range retunes {
		byWindow[r.Window] = append(byWindow[r.Window], r)
	}
	for _, r := range byWindow[-1] {
		b.WriteString(renderRetune(r))
	}
	for _, rep := range reports {
		verdict := "VIOL"
		if rep.Satisfied {
			verdict = "ok"
		}
		fmt.Fprintf(&b, "%-4d %-8s %-24s %4d %s %s %s %4d %7.2f %5s %5.2f  %s\n",
			rep.Window, rep.Config, fmtMix(rep.Mix), rep.Queries,
			fmtSec(rep.P50), fmtSec(rep.P95), fmtSec(rep.P99), rep.Timeouts,
			rep.EAMedian, verdict, rep.Satisfaction, rep.Trigger)
		if rep.HypoRatio > 0 {
			fmt.Fprintf(&b, "     · first full window under new config: H/A = %.2f\n", rep.HypoRatio)
		}
		for _, r := range byWindow[rep.Window] {
			b.WriteString(renderRetune(r))
		}
	}
	return b.String()
}

func renderRetune(r RetuneRecord) string {
	if r.Err != "" {
		return fmt.Sprintf("     ↳ retune [%s] failed: %s\n", r.Reason, r.Err)
	}
	return fmt.Sprintf("     ↳ retune [%s] → %s: built %d, kept %d, dropped %d, AT=%.1fs, predicted %.2fs/q\n",
		r.Reason, r.Name, r.Built, r.Kept, r.Dropped, r.BuildSeconds, r.PredictedMean)
}

// RenderComparison prints the headline drift experiment: the autopilot
// run against a static baseline that froze its configuration after the
// warmup tune, window by window.
func RenderComparison(auto, static []WindowReport) string {
	n := len(auto)
	if len(static) < n {
		n = len(static)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-24s | %-8s %8s %5s %5s | %-8s %8s %5s %5s\n",
		"", "", "autopilot", "", "", "", "static", "", "", "")
	fmt.Fprintf(&b, "%-4s %-24s | %-8s %8s %5s %5s | %-8s %8s %5s %5s\n",
		"win", "mix", "config", "p95", "goal", "level", "config", "p95", "goal", "level")
	for i := 0; i < n; i++ {
		a, s := auto[i], static[i]
		av, sv := "VIOL", "VIOL"
		if a.Satisfied {
			av = "ok"
		}
		if s.Satisfied {
			sv = "ok"
		}
		fmt.Fprintf(&b, "%-4d %-24s | %-8s %s %5s %5.2f | %-8s %s %5s %5.2f\n",
			a.Window, fmtMix(a.Mix),
			a.Config, fmtSec(a.P95), av, a.Satisfaction,
			s.Config, fmtSec(s.P95), sv, s.Satisfaction)
	}
	return b.String()
}
