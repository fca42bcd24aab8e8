package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/recommender"
)

// Experiment is one reproducible unit: a figure, a table, or an analysis
// paragraph of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(l *Lab) (string, error)
}

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: System A on NREF2J, configuration P (histogram)", fig1},
		{"fig2", "Figure 2: System A on NREF2J, recommended configuration (histogram)", fig2},
		{"fig3", "Figure 3: System A on NREF2J (CFC of P, 1C, R)", fig3},
		{"fig4", "Figure 4: System A on NREF3J (CFC; no recommendation produced)", fig4},
		{"fig5", "Figure 5: System B on NREF2J (CFC of P, 1C, R)", fig5},
		{"fig6", "Figure 6: System B on NREF3J (CFC of P, 1C, R)", fig6},
		{"fig7", "Figure 7: System C on SkTH3Js (CFC of P, 1C, R)", fig7},
		{"fig8", "Figure 8: System C on SkTH3J (CFC of P, 1C, R)", fig8},
		{"fig9", "Figure 9: System C on UnTH3J (CFC of P, 1C, R)", fig9},
		{"fig10", "Figure 10: estimate curves for NREF3J on System B (EP, ER, E1C, HR, H1C)", fig10},
		{"fig11", "Figure 11: improvement-ratio histograms for NREF3J on System B (AIR, EIR, HIR)", fig11},
		{"table1", "Table 1: sizes and build times of all configurations", table1},
		{"table2", "Table 2: index widths per recommended configuration (NREF)", table2},
		{"table3", "Table 3: index widths per recommended configuration (TPC-H)", table3},
		{"lowerbounds", "§4.3: workload total lower bounds for SkTH3J on System C", lowerBounds},
		{"insertions", "§4.4: insertion break-even between 1C and R on NREF2J", insertions},
		{"families", "§4.1.1: family sizes before and after restriction", families},
		{"goals", "Example 2: QoS goal satisfaction per configuration", goals},
		{"transitions", "§2.2: configuration transition costs AT and ET", transitions},
		{"ablation-whatif", "Ablation: System B with an idealized what-if estimator", ablationWhatIf},
		{"ablation-budget", "Ablation: recommendations under a 4x storage budget", ablationBudget},
		{"ablation-disk", "Ablation: CFCs as the random:sequential cost ratio shrinks", ablationDisk},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// curvesFigure renders a CFC comparison for one (system, family).
func curvesFigure(l *Lab, title, sys, family string, withR bool) (string, error) {
	labels := []string{"P", "1C"}
	configs := []string{"P", "1C"}
	if withR {
		labels = append(labels, "R")
		configs = append(configs, "R:"+family)
	}
	var curves []core.CFC
	for _, cn := range configs {
		c, err := l.CFC(sys, family, cn)
		if err != nil {
			return "", err
		}
		curves = append(curves, c)
	}
	out := core.RenderCurves(title, labels, curves, 1, Timeout)
	out += "\n" + core.SummaryTable(labels, curves)
	return out, nil
}

func fig1(l *Lab) (string, error) {
	ms, err := l.Run("A", "NREF2J", "P")
	if err != nil {
		return "", err
	}
	return core.NewHistogram(ms, 1, Timeout, 2).Render("A NREF P: query execution times, NREF2J"), nil
}

func fig2(l *Lab) (string, error) {
	ms, err := l.Run("A", "NREF2J", "R:NREF2J")
	if err != nil {
		return "", err
	}
	return core.NewHistogram(ms, 1, Timeout, 2).Render("A NREF2J R: query execution times, NREF2J"), nil
}

func fig3(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System A on NREF2J", "A", "NREF2J", true)
}

func fig4(l *Lab) (string, error) {
	out, err := curvesFigure(l, "Behavior of System A on NREF3J", "A", "NREF3J", false)
	if err != nil {
		return "", err
	}
	_, recErr := l.Recommendation("A", "NREF3J")
	if recErr == nil {
		out += "\nUNEXPECTED: System A produced a recommendation for NREF3J " +
			"(the paper observed none)\n"
	} else {
		out += fmt.Sprintf("\nNo R curve: System A's recommender failed on this workload:\n  %v\n", recErr)
	}
	return out, nil
}

func fig5(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System B on NREF2J", "B", "NREF2J", true)
}

func fig6(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System B on NREF3J", "B", "NREF3J", true)
}

func fig7(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System C on SkTH3Js", "C", "SkTH3Js", true)
}

func fig8(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System C on SkTH3J", "C", "SkTH3J", true)
}

func fig9(l *Lab) (string, error) {
	return curvesFigure(l, "Behavior of System C on UnTH3J", "C", "UnTH3J", true)
}

// fig10 plots estimate curves: EP/ER/E1C are optimizer estimates taken in
// each configuration; HR/H1C are hypothetical estimates taken in P. The
// x axis is in estimation units (seconds of estimated cost here; the paper
// used the optimizer's arbitrary units).
func fig10(l *Lab) (string, error) {
	const sys, family = "B", "NREF3J"
	ep, err := l.Estimates(sys, family, "P")
	if err != nil {
		return "", err
	}
	er, err := l.Estimates(sys, family, "R:"+family)
	if err != nil {
		return "", err
	}
	e1c, err := l.Estimates(sys, family, "1C")
	if err != nil {
		return "", err
	}
	hr, err := l.Hypotheticals(sys, family, "R:"+family)
	if err != nil {
		return "", err
	}
	h1c, err := l.Hypotheticals(sys, family, "1C")
	if err != nil {
		return "", err
	}
	labels := []string{"EP", "ER", "E1C", "HR", "H1C"}
	var curves []core.CFC
	for _, ms := range [][]core.Measure{ep, er, e1c, hr, h1c} {
		curves = append(curves, core.NewCFC(ms, Timeout))
	}
	out := core.RenderCurves("Cumulative curves of optimizer estimates, NREF3J on System B",
		labels, curves, 0.1, 100000)
	out += "\n" + core.SummaryTable(labels, curves)
	return out, nil
}

// fig11 renders the three improvement-ratio histograms comparing R to 1C:
// actual (AIR), estimated-in-target (EIR) and hypothetical-in-P (HIR).
func fig11(l *Lab) (string, error) {
	const sys, family = "B", "NREF3J"
	aR, err := l.Run(sys, family, "R:"+family)
	if err != nil {
		return "", err
	}
	a1c, err := l.Run(sys, family, "1C")
	if err != nil {
		return "", err
	}
	eR, err := l.Estimates(sys, family, "R:"+family)
	if err != nil {
		return "", err
	}
	e1c, err := l.Estimates(sys, family, "1C")
	if err != nil {
		return "", err
	}
	hR, err := l.Hypotheticals(sys, family, "R:"+family)
	if err != nil {
		return "", err
	}
	h1c, err := l.Hypotheticals(sys, family, "1C")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Improvement ratios R vs 1C, NREF3J on System B\n")
	sb.WriteString("(ratio 10^k: 1C is 10^k times faster than R; 1 = no improvement)\n\n")
	sb.WriteString(core.NewRatioHistogram(core.ImprovementRatio(aR, a1c)).Render("AIR (actual)"))
	sb.WriteString(core.NewRatioHistogram(core.ImprovementRatio(eR, e1c)).Render("EIR (estimates in target configs)"))
	sb.WriteString(core.NewRatioHistogram(core.ImprovementRatio(hR, h1c)).Render("HIR (hypothetical estimates in P)"))
	return sb.String(), nil
}

// table1 reproduces the size/build-time table for every configuration in
// the experiments.
func table1(l *Lab) (string, error) {
	rows := []struct{ sys, db, name, label string }{
		{"A", DBNref, "P", "A NREF P"},
		{"A", DBNref, "R:NREF2J", "A NREF2J R"},
		{"A", DBNref, "1C", "A NREF 1C"},
		{"B", DBNref, "P", "B NREF P"},
		{"B", DBNref, "R:NREF2J", "B NREF2J R"},
		{"B", DBNref, "R:NREF3J", "B NREF3J R"},
		{"B", DBNref, "1C", "B NREF 1C"},
		{"C", DBSkTH, "P", "C SkTH P"},
		{"C", DBSkTH, "R:SkTH3J", "C SkTH3J R"},
		{"C", DBSkTH, "R:SkTH3Js", "C SkTH3Js R"},
		{"C", DBSkTH, "1C", "C SkTH 1C"},
		{"C", DBUnTH, "P", "C UnTH P"},
		{"C", DBUnTH, "R:UnTH3J", "C UnTH3J R"},
		{"C", DBUnTH, "1C", "C UnTH 1C"},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %12s\n", "Configuration", "Size (GB)", "Time (min)")
	for _, r := range rows {
		rep, err := l.BuildReport(r.sys, r.db, r.name)
		if err != nil {
			fmt.Fprintf(&sb, "%-14s %10s %12s  (%v)\n", r.label, "-", "-", err)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %10.1f %12.0f\n", r.label,
			float64(rep.Bytes)/(1<<30), rep.BuildSeconds/60)
	}
	return sb.String(), nil
}

// widthTable renders the per-table index-width counts of recommended
// configurations (paper Tables 2 and 3).
func widthTable(l *Lab, specs []struct{ sys, family string }) (string, error) {
	var sb strings.Builder
	for _, s := range specs {
		cfg, err := l.Recommendation(s.sys, s.family)
		if err != nil {
			fmt.Fprintf(&sb, "%s %s R: no recommendation (%v)\n\n", s.sys, s.family, err)
			continue
		}
		fmt.Fprintf(&sb, "%s %s R:\n", s.sys, s.family)
		counts := cfg.WidthCounts(4)
		fmt.Fprintf(&sb, "  %-28s %4s %4s %4s %4s\n", "Relation", "1c", "2c", "3c", "4c")
		totals := make([]int, 4)
		for _, t := range conf.SortedTables(counts) {
			row := counts[t]
			fmt.Fprintf(&sb, "  %-28s %4d %4d %4d %4d\n", t, row[0], row[1], row[2], row[3])
			for i := range totals {
				totals[i] += row[i]
			}
		}
		fmt.Fprintf(&sb, "  %-28s %4d %4d %4d %4d\n", "Totals", totals[0], totals[1], totals[2], totals[3])
		if len(cfg.Views) > 0 {
			fmt.Fprintf(&sb, "  materialized views: %d\n", len(cfg.Views))
			for _, v := range cfg.Views {
				fmt.Fprintf(&sb, "    %s over %s\n", v.Name, strings.Join(v.BaseTables, " ⋈ "))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func table2(l *Lab) (string, error) {
	return widthTable(l, []struct{ sys, family string }{
		{"A", "NREF2J"}, {"B", "NREF2J"}, {"B", "NREF3J"},
	})
}

func table3(l *Lab) (string, error) {
	return widthTable(l, []struct{ sys, family string }{
		{"C", "SkTH3Js"}, {"C", "SkTH3J"}, {"C", "UnTH3J"},
	})
}

// lowerBounds reproduces the §4.3 totals: the SkTH3J workload's total
// execution time per configuration, with timeouts counted at the limit.
func lowerBounds(l *Lab) (string, error) {
	var sb strings.Builder
	sb.WriteString("SkTH3J on System C: workload total lower bounds (timeouts at 1800s)\n\n")
	for _, cn := range []string{"P", "1C", "R:SkTH3J"} {
		c, err := l.CFC("C", "SkTH3J", cn)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %-10s total >= %8.0fs  (timeouts %d/%d)\n",
			strings.TrimPrefix(cn, "R:SkTH3J"), c.TotalLowerBound(), c.Timeouts(), c.N())
	}
	c1, err := l.CFC("C", "SkTH3J", "1C")
	if err != nil {
		return "", err
	}
	cr, err := l.CFC("C", "SkTH3J", "R:SkTH3J")
	if err != nil {
		return "", err
	}
	if c1.TotalLowerBound() > 0 {
		fmt.Fprintf(&sb, "\n  1C outperforms R by %.1fx on this conservative measure\n",
			cr.TotalLowerBound()/c1.TotalLowerBound())
	}
	return sb.String(), nil
}

// insertions reproduces §4.4: how many rows must be inserted into
// Neighboring_seq before 1C's slower inserts erase its faster queries
// relative to R, for systems A and B on NREF2J.
func insertions(l *Lab) (string, error) {
	var sb strings.Builder
	sb.WriteString("Insertion break-even on NREF2J (paper §4.4: ~400,000 tuples)\n\n")
	for _, sys := range []string{"A", "B"} {
		cR, err := l.CFC(sys, "NREF2J", "R:NREF2J")
		if err != nil {
			return "", err
		}
		c1, err := l.CFC(sys, "NREF2J", "1C")
		if err != nil {
			return "", err
		}
		queryGain := cR.TotalLowerBound() - c1.TotalLowerBound()

		b1C, err := l.configured(sys, DBNref, "1C")
		if err != nil {
			return "", err
		}
		bR, err := l.configured(sys, DBNref, "R:NREF2J")
		if err != nil {
			return "", err
		}
		ins1C := b1C.e.InsertCostPerRow("neighboring_seq")
		insR := bR.e.InsertCostPerRow("neighboring_seq")

		extra := ins1C - insR
		if extra <= 0 || queryGain <= 0 {
			fmt.Fprintf(&sb, "  System %s: no break-even (queryGain=%.0fs, insert delta=%.4fs/row)\n",
				sys, queryGain, extra)
			continue
		}
		breakEven := queryGain / extra
		fmt.Fprintf(&sb, "  System %s: query gain of 1C over R %.0fs; insert cost/row 1C=%.4fs R=%.4fs\n",
			sys, queryGain, ins1C, insR)
		fmt.Fprintf(&sb, "            break-even after %.0f inserted tuples (full-scale)\n", breakEven)
	}
	return sb.String(), nil
}

// families reports the §4.1.1 family-size funnel.
func families(l *Lab) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %14s %12s %8s\n", "Family", "unrestricted", "restricted", "sample")
	for _, spec := range []struct{ sys, family string }{
		{"A", "NREF2J"}, {"A", "NREF3J"}, {"C", "SkTH3J"}, {"C", "SkTH3Js"}, {"C", "UnTH3J"},
	} {
		db := dbOfFamily(spec.family)
		e := l.pEngine(spec.sys, db)
		opts := defaultFamilyOptions()
		full := generateFamily(spec.family, e, opts)
		sample := l.Workload(spec.sys, spec.family)
		fmt.Fprintf(&sb, "%-10s %14d %12d %8d\n",
			spec.family, full.UnrestrictedSize, len(full.Queries), len(sample.Queries))
	}
	return sb.String(), nil
}

// goals evaluates the paper's Example 2 QoS goal against System A's
// NREF2J configurations (the paper reads this off Figure 3).
func goals(l *Lab) (string, error) {
	goal := core.Example2Goal()
	var sb strings.Builder
	sb.WriteString("Example 2 goal: 10% < 10s, 50% < 60s, 90% < 1800s\n\n")
	for _, cn := range []string{"P", "1C", "R:NREF2J"} {
		c, err := l.CFC("A", "NREF2J", cn)
		if err != nil {
			return "", err
		}
		verdict := "NOT satisfied"
		if goal.Satisfied(c) {
			verdict = "satisfied"
		}
		fmt.Fprintf(&sb, "  %-10s %s  (CFC: 10s→%.0f%%, 60s→%.0f%%, 1800s→%.0f%%)\n",
			strings.TrimPrefix(cn, "R:NREF2J"), verdict,
			100*c.At(10.0001), 100*c.At(60.0001), 100*c.At(1800.0001))
	}
	return sb.String(), nil
}

// ablationWhatIf rebuilds System B with an idealized what-if estimator
// (no conservatism penalty, locality credit granted) and compares the
// resulting recommendation against the production one and 1C. This makes
// the paper's Section 5 diagnosis runnable: better observation closes
// much of the gap.
func ablationWhatIf(l *Lab) (string, error) {
	prof := engine.SystemB()
	prof.Name = "B-ideal"
	prof.Opts.HypoRowPenalty = 1
	prof.Opts.HypoIdeal = true
	e := engine.New(l.pEngine("B", DBNref).Schema, l.Scale, prof)
	must(datagenNREFInto(e, l))
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		return "", err
	}
	fam := l.Workload("B", "NREF2J")
	w := e.NewWhatIf()
	budget := w.EstimateSize(engine.OneColumnConfiguration(e))
	rec, err := recommender.New(e, recommender.SystemB()).Recommend(fam.SQLs(), budget)
	if err != nil {
		return "", err
	}
	if _, err := e.ApplyConfig(rec); err != nil {
		return "", err
	}
	msIdeal, err := l.runner().RunWorkload(e, fam.SQLs(), Timeout)
	if err != nil {
		return "", err
	}
	cIdeal := core.NewCFC(msIdeal, Timeout)
	cR, err := l.CFC("B", "NREF2J", "R:NREF2J")
	if err != nil {
		return "", err
	}
	c1, err := l.CFC("B", "NREF2J", "1C")
	if err != nil {
		return "", err
	}
	out := core.RenderCurves("NREF2J on System B: production vs idealized what-if estimator",
		[]string{"R", "R-ideal", "1C"}, []core.CFC{cR, cIdeal, c1}, 1, Timeout)
	out += "\n" + core.SummaryTable([]string{"R", "R-ideal", "1C"}, []core.CFC{cR, cIdeal, c1})
	return out, nil
}

// ablationBudget compares the recommendation under the standard (1C-sized)
// budget with one under a 4x budget (§3.2.3 reports "unlimited" budgets
// helped in some but not all cases).
func ablationBudget(l *Lab) (string, error) {
	fam := l.Workload("B", "NREF2J")
	budget := l.Budget("B", DBNref)
	recBig, err := recommender.New(l.pEngine("B", DBNref), recommender.SystemB()).Recommend(fam.SQLs(), budget*4)
	if err != nil {
		return "", err
	}
	recBig.Name = "B NREF2J R (4x budget)"
	e := l.Engine("B", DBNref)
	if _, err := e.ApplyConfig(recBig); err != nil {
		return "", err
	}
	ms, err := l.runner().RunWorkload(e, fam.SQLs(), Timeout)
	if err != nil {
		return "", err
	}
	cBig := core.NewCFC(ms, Timeout)
	cR, err := l.CFC("B", "NREF2J", "R:NREF2J")
	if err != nil {
		return "", err
	}
	c1, err := l.CFC("B", "NREF2J", "1C")
	if err != nil {
		return "", err
	}
	out := core.RenderCurves("NREF2J on System B: storage budget ablation",
		[]string{"R", "R-4x", "1C"}, []core.CFC{cR, cBig, c1}, 1, Timeout)
	out += "\n" + core.SummaryTable([]string{"R", "R-4x", "1C"}, []core.CFC{cR, cBig, c1})
	return out, nil
}

// ablationDisk re-runs A NREF2J P vs 1C under progressively cheaper random
// I/O (2005 disk → 10x → 100x cheaper seeks, approaching SSDs): the
// index-vs-scan crossover moves and the 1C advantage narrows.
func ablationDisk(l *Lab) (string, error) {
	var sb strings.Builder
	sb.WriteString("A NREF2J: total lower bound (s) as random pages get cheaper\n\n")
	fmt.Fprintf(&sb, "  %-22s %12s %12s %8s\n", "random-page cost", "P total", "1C total", "P/1C")
	fam := l.Workload("A", "NREF2J")
	var engines []*engine.Engine // P, 1C
	for _, cn := range []string{"P", "1C"} {
		b, err := l.configured("A", DBNref, cn)
		if err != nil {
			return "", err
		}
		engines = append(engines, b.e)
	}
	baseModel := engines[0].Model
	for _, div := range []float64{1, 10, 100} {
		m := baseModel
		m.RandPageSec = baseModel.RandPageSec / div
		var totals []float64
		for _, shared := range engines {
			// The cheaper disk goes on a fork: the lab's engines keep theirs.
			e := shared.Fork()
			e.Model = m
			ms, err := l.runner().RunWorkload(e, fam.SQLs(), Timeout)
			if err != nil {
				return "", err
			}
			totals = append(totals, core.NewCFC(ms, Timeout).TotalLowerBound())
		}
		fmt.Fprintf(&sb, "  %.2fms (2005/%0.f)%8s %12.0f %12.0f %8.1f\n",
			1000*m.RandPageSec, div, "", totals[0], totals[1],
			totals[0]/math.Max(totals[1], 1))
	}
	return sb.String(), nil
}

// transitions reports the framework's transition costs (§2.2): AT(Ci, Cj)
// measured by incremental builds and ET(Ci, Cj) estimated from statistics,
// for the configuration changes a DBA would actually perform.
func transitions(l *Lab) (string, error) {
	e := l.Engine("B", DBNref)
	recR, err := l.Recommendation("B", "NREF2J")
	if err != nil {
		return "", err
	}
	p := engine.PConfiguration(e)
	oneC := engine.OneColumnConfiguration(e)

	var sb strings.Builder
	sb.WriteString("Configuration transition costs on NREF (System B), simulated minutes\n\n")
	fmt.Fprintf(&sb, "  %-22s %10s %10s\n", "transition", "ET (est)", "AT (actual)")
	steps := []struct {
		name string
		to   conf.Configuration
	}{
		{"P -> R(NREF2J)", recR},
		{"R(NREF2J) -> 1C", oneC},
		{"1C -> P", p},
		{"P -> 1C", oneC},
	}
	for _, st := range steps {
		w := e.NewWhatIf()
		et, err := w.EstimateTransition(st.to)
		if err != nil {
			return "", err
		}
		rep, err := e.Transition(st.to)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %-22s %10.1f %10.1f\n", st.name, et/60, rep.BuildSeconds/60)
	}
	sb.WriteString("\nIncremental AT is far below rebuilding from scratch when\nconfigurations overlap — the observe/react loop gets cheaper.\n")
	return sb.String(), nil
}
