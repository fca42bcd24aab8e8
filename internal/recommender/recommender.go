// Package recommender implements autonomic configuration recommenders in
// the mold the paper benchmarks (§2.1): given a workload and a storage
// budget, search the space of index (and materialized-view) configurations
// for one minimizing the estimated workload cost, where every estimate is
// a hypothetical what-if estimate H(q, Ch, P) obtained through the
// engine's optimizer from the current configuration's statistics.
//
// Three profiles reproduce the behavioral envelope of the paper's
// commercial Systems A, B and C:
//
//   - System A enumerates per-query candidate permutations aggressively
//     and gives up when the candidate space exceeds its work limit — the
//     paper §4.1.2 observed exactly this: A produced no recommendation at
//     all for the NREF3J 100-query workload.
//   - System B generates targeted composites and runs a workload-level
//     greedy knapsack on total estimated cost.
//   - System C additionally proposes materialized views over the
//     workload's joins, and indexes on those views (paper Table 3).
package recommender

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/sql"
)

// ErrTooComplex reports that the recommender capitulated: the candidate
// space for the workload exceeded its evaluation budget (System A on
// NREF3J).
var ErrTooComplex = errors.New("recommender: workload candidate space exceeds the evaluation limit")

// Config parameterizes a recommender profile.
type Config struct {
	Name string
	// MaxWidth bounds index key width (the paper's recommendations never
	// exceeded 4 columns; Tables 2 and 3).
	MaxWidth int
	// TopPerQuery keeps the best candidates per query after solo
	// evaluation, before the workload-level search.
	TopPerQuery int
	// EvalLimit bounds the total number of per-query candidate
	// evaluations; exceeded => ErrTooComplex. 0 means unlimited.
	EvalLimit int
	// Permute enumerates all ordered permutations of relevant column
	// subsets (System A's aggressive generation) instead of targeted
	// composites.
	Permute bool
	// UseViews adds materialized-view candidates (System C).
	UseViews bool
	// MinGainFrac stops the greedy search when the best candidate's gain
	// falls below this fraction of the current total estimated cost.
	MinGainFrac float64
	// PerQuery ranks candidates only by their solo (single-query) gains
	// instead of re-evaluating the workload each greedy round.
	PerQuery bool
	// MaxIndexes caps the number of non-auto indexes in the
	// recommendation (0 = unlimited).
	MaxIndexes int
}

// SystemA returns the paper's System A profile.
func SystemA() Config {
	return Config{
		Name: "A", MaxWidth: 4, TopPerQuery: 2,
		EvalLimit: 8000, Permute: true, PerQuery: true,
		MinGainFrac: 0.01, MaxIndexes: 12,
	}
}

// SystemB returns the paper's System B profile.
func SystemB() Config {
	return Config{
		Name: "B", MaxWidth: 4, TopPerQuery: 3,
		MinGainFrac: 0.002,
	}
}

// SystemC returns the paper's System C profile.
func SystemC() Config {
	return Config{
		Name: "C", MaxWidth: 4, TopPerQuery: 3,
		UseViews: true, MinGainFrac: 0.002,
	}
}

// System returns the profile of the named system: "A", "B" or "C".
func System(name string) (Config, error) {
	switch name {
	case "A":
		return SystemA(), nil
	case "B":
		return SystemB(), nil
	case "C":
		return SystemC(), nil
	}
	return Config{}, fmt.Errorf("recommender: unknown system %q", name)
}

// candidate is one atomic configuration change: a set of indexes, possibly
// bundled with the materialized view they are defined on.
type candidate struct {
	key     string
	indexes []conf.IndexDef
	views   []conf.ViewDef
	// size is the estimated full-scale bytes, filled lazily.
	size int64
	// soloGain accumulates single-query gains (for ranking).
	soloGain float64
}

// scoredCand pairs a candidate with its single-query gain. byGainDesc
// sorts best-gain-first (ties by key for determinism); a named
// sort.Interface keeps the per-query ranking loop closure-free on the
// recommendation path.
type scoredCand struct {
	c    *candidate
	gain float64
}

type byGainDesc []scoredCand

func (s byGainDesc) Len() int      { return len(s) }
func (s byGainDesc) Swap(a, b int) { s[a], s[b] = s[b], s[a] }
func (s byGainDesc) Less(a, b int) bool {
	if s[a].gain != s[b].gain {
		return s[a].gain > s[b].gain
	}
	return s[a].c.key < s[b].c.key
}

func (c *candidate) applyTo(cfg conf.Configuration) conf.Configuration {
	out := cfg.Clone()
	for _, v := range c.views {
		if !out.HasView(v.Name) {
			out.Views = append(out.Views, v)
		}
	}
	for _, ix := range c.indexes {
		out.AddIndex(ix)
	}
	return out
}

// inConfig reports whether the configuration already contains everything
// the candidate would add.
func (c *candidate) inConfig(cfg conf.Configuration) bool {
	for _, v := range c.views {
		if !cfg.HasView(v.Name) {
			return false
		}
	}
	for _, ix := range c.indexes {
		if !cfg.HasIndex(ix) {
			return false
		}
	}
	return true
}

// tables returns the base tables the candidate concerns (for affected-
// query filtering).
func (c *candidate) tables() map[string]bool {
	out := make(map[string]bool)
	for _, ix := range c.indexes {
		out[strings.ToLower(ix.Table)] = true
	}
	for _, v := range c.views {
		for _, t := range v.BaseTables {
			out[strings.ToLower(t)] = true
		}
	}
	return out
}

// Recommender searches configurations for one engine + profile. Its
// search is one owner of one what-if session: every estimate runs on the
// calling goroutine, in a fixed order.
type Recommender struct {
	e       *engine.Engine
	cfg     Config
	session *engine.WhatIf
}

// New creates a recommender over the engine (which should be in the P
// configuration with statistics collected, per §3.2.3).
func New(e *engine.Engine, cfg Config) *Recommender {
	return &Recommender{e: e, cfg: cfg}
}

// Parallel returns the recommender unchanged: the search is sequential.
//
// Deprecated: it set a candidate-evaluation fan-out that ran slower at
// two workers than at one in every phase (DESIGN §11), and is gone. Only
// the wall-clock benchmark still calls it; ROADMAP item 3 removes those
// calls and then this method.
func (r *Recommender) Parallel(int) *Recommender { return r }

// UseSession makes the search estimate through an existing what-if
// session instead of opening its own, so a long-lived caller (the
// retune loop) shares one estimate cache across retunes and with its
// own predictions. The session must belong to the same engine.
func (r *Recommender) UseSession(w *engine.WhatIf) *Recommender {
	r.session = w
	return r
}

// Recommend returns a configuration for the workload within the storage
// budget (full-scale bytes for structures beyond the base configuration).
func (r *Recommender) Recommend(queries []string, budget int64) (conf.Configuration, error) {
	base := r.e.Current().Clone()
	base.Name = r.cfg.Name + " R"

	// The workload's queries: the engine analyzes each text once and
	// hands the same query back to every later search.
	qs := make([]*sql.Query, len(queries))
	for i, text := range queries {
		q, err := r.e.AnalyzeSQL(text)
		if err != nil {
			return conf.Configuration{}, fmt.Errorf("recommender: %w", err)
		}
		qs[i] = q
	}

	// Candidate generation, with the capitulation check applied to the
	// size of the candidate space before any evaluation happens.
	perQuery := make([][]*candidate, len(qs))
	evals := 0
	for i, q := range qs {
		perQuery[i] = r.generate(q)
		evals += r.evalUnits(q, perQuery[i])
	}
	if r.cfg.EvalLimit > 0 && evals > r.cfg.EvalLimit {
		return conf.Configuration{}, fmt.Errorf("%w (%d evaluations > %d)",
			ErrTooComplex, evals, r.cfg.EvalLimit)
	}

	w := r.session
	if w == nil {
		w = r.e.NewWhatIf()
	}
	// The starting configuration is resolved once: the baseline and every
	// solo trial pay only for their own delta.
	rbase, err := w.Resolve(base)
	if err != nil {
		return conf.Configuration{}, err
	}

	// Baseline cost per query in the starting configuration.
	baseCost := make([]float64, len(qs))
	for i, q := range qs {
		m, err := w.EstimateWith(q, rbase, conf.Configuration{})
		if err != nil {
			return conf.Configuration{}, err
		}
		baseCost[i] = m.Seconds
	}

	// Solo evaluation: estimate every (query, candidate) pair through the
	// delta path and keep the best TopPerQuery candidates per query.
	pool := make(map[string]*candidate)
	var ss []scoredCand
	for i, q := range qs {
		ss = ss[:0]
		for _, c := range perQuery[i] {
			m, err := w.EstimateWith(q, rbase, conf.Configuration{Indexes: c.indexes, Views: c.views})
			if err != nil {
				return conf.Configuration{}, err
			}
			if g := baseCost[i] - m.Seconds; g > 0 {
				ss = append(ss, scoredCand{c, g})
			}
		}
		sort.Sort(byGainDesc(ss))
		if len(ss) > r.cfg.TopPerQuery {
			ss = ss[:r.cfg.TopPerQuery]
		}
		for _, s := range ss {
			if p, ok := pool[s.c.key]; ok {
				p.soloGain += s.gain
			} else {
				c := *s.c
				c.soloGain = s.gain
				pool[s.c.key] = &c
			}
		}
	}

	// Estimate candidate sizes (key-sorted first so every later stage sees
	// one deterministic candidate order).
	cands := make([]*candidate, 0, len(pool))
	for _, c := range pool {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].key < cands[b].key })
	for _, c := range cands {
		c.size = w.EstimateSize(conf.Configuration{Indexes: c.indexes, Views: c.views})
	}

	if r.cfg.PerQuery {
		return r.packBySoloGain(base, cands, budget), nil
	}
	return r.greedy(w, base, qs, baseCost, cands, budget)
}

// packBySoloGain is System A's cruder selection: rank the pooled
// candidates by accumulated single-query gain density and add them while
// the budget lasts, without workload-level re-evaluation.
func (r *Recommender) packBySoloGain(base conf.Configuration, cands []*candidate, budget int64) conf.Configuration {
	sort.SliceStable(cands, func(a, b int) bool {
		da := cands[a].soloGain / float64(cands[a].size+1)
		db := cands[b].soloGain / float64(cands[b].size+1)
		if da != db {
			return da > db
		}
		return cands[a].key < cands[b].key
	})
	out := base
	var used int64
	for _, c := range cands {
		if c.inConfig(out) {
			continue
		}
		if used+c.size > budget {
			continue
		}
		if r.cfg.MaxIndexes > 0 && nonAutoCount(out)+len(c.indexes) > r.cfg.MaxIndexes {
			continue
		}
		out = c.applyTo(out)
		used += c.size
	}
	return out
}

// nonAutoCount counts the recommendation's own indexes.
func nonAutoCount(c conf.Configuration) int {
	n := 0
	for _, d := range c.Indexes {
		if !d.Auto {
			n++
		}
	}
	return n
}

// queryCost is one improved query cost found during a greedy trial.
type queryCost struct {
	qi      int
	seconds float64
}

// roundBest is a greedy round's winner: the index of the candidate with
// the best gain density (-1 for none), its total gain over the affected
// queries and the per-query costs it improved. trial is the array the
// next candidate's costs gather in; a trial that wins swaps arrays with
// costs, so the two are reused round after round.
type roundBest struct {
	ci           int
	gain         float64
	costs, trial []queryCost
}

// greedy is the workload-level knapsack: each round adds the candidate
// with the best total-gain-per-byte, re-estimating affected queries, until
// no candidate clears the minimum-gain bar or the budget is exhausted.
func (r *Recommender) greedy(w *engine.WhatIf, base conf.Configuration, qs []*sql.Query,
	baseCost []float64, cands []*candidate, budget int64) (conf.Configuration, error) {

	cur := base
	cost := append([]float64(nil), baseCost...)
	var used int64

	// affected[i] lists queries touching candidate i's tables.
	affected := make([][]int, len(cands))
	for ci, c := range cands {
		tabs := c.tables()
		for qi, q := range qs {
			for _, t := range q.Tables {
				if tabs[strings.ToLower(t.Table.Name)] {
					affected[ci] = append(affected[ci], qi)
					break
				}
			}
		}
	}

	work := make([]int, 0, len(cands))
	var best roundBest
	for round := 0; round < 64; round++ {
		total := 0.0
		for _, c := range cost {
			total += c
		}
		// The feasibility filter depends on the evolving configuration and
		// budget.
		work = work[:0]
		for ci, c := range cands {
			if c.inConfig(cur) || used+c.size > budget {
				continue
			}
			if r.cfg.MaxIndexes > 0 && nonAutoCount(cur)+len(c.indexes) > r.cfg.MaxIndexes {
				continue
			}
			work = append(work, ci)
		}
		if len(work) == 0 {
			break
		}
		if err := r.greedyRound(w, cur, qs, cost, cands, affected, work, &best); err != nil {
			return conf.Configuration{}, err
		}
		if best.ci < 0 || best.gain < r.cfg.MinGainFrac*total {
			break
		}
		cur = cands[best.ci].applyTo(cur)
		used += cands[best.ci].size
		for _, qc := range best.costs {
			cost[qc.qi] = qc.seconds
		}
	}
	return cur, nil
}

// greedyRound evaluates one round's feasible candidates (work, indexes
// into cands) against the current configuration, in candidate order, and
// keeps the best in best: the highest gain density, a tie going to the
// earlier candidate. Trials go through the what-if delta path: the
// current configuration is resolved once per round and each candidate
// only contributes its own delta.
func (r *Recommender) greedyRound(w *engine.WhatIf, cur conf.Configuration, qs []*sql.Query,
	cost []float64, cands []*candidate, affected [][]int, work []int, best *roundBest) error {
	rcur, err := w.Resolve(cur)
	if err != nil {
		return err
	}
	best.ci, best.gain = -1, 0
	for _, ci := range work {
		c := cands[ci]
		delta := conf.Configuration{Indexes: c.indexes, Views: c.views}
		gain := 0.0
		best.trial = best.trial[:0]
		for _, qi := range affected[ci] {
			m, err := w.EstimateWith(qs[qi], rcur, delta)
			if err != nil {
				return err
			}
			if m.Seconds < cost[qi] {
				gain += cost[qi] - m.Seconds
				best.trial = append(best.trial, queryCost{qi: qi, seconds: m.Seconds})
			}
		}
		if gain > 0 && (best.ci < 0 || gain/float64(c.size+1) > best.gain/float64(cands[best.ci].size+1)) {
			best.ci, best.gain = ci, gain
			best.costs, best.trial = best.trial, best.costs
		}
	}
	return nil
}

// evalUnits sizes the candidate space for one query, whose generated
// candidates are cands. Permuting profiles (System A) consider
// combinations of one index per table instance, so their space is the
// product of the per-alias permutation counts — the multiplicative blowup
// that makes self-joining three-table workloads (NREF3J) exceed the limit
// while two-table workloads stay under it. The others evaluate each
// candidate once.
func (r *Recommender) evalUnits(q *sql.Query, cands []*candidate) int {
	if !r.cfg.Permute {
		return len(cands)
	}
	sets := relevantColumns(q)
	units := 1
	for _, cs := range sets {
		rel := len(concatUnique(cs.eq, cs.rng, cs.join, cs.in, cs.group))
		n := permCount(rel, r.cfg.MaxWidth)
		if n < 1 {
			n = 1
		}
		units *= n
		if units > 1<<30 {
			return 1 << 30
		}
	}
	return units
}

// permCount returns sum_{k=1..maxLen} n!/(n-k)!.
func permCount(n, maxLen int) int {
	total := 0
	for k := 1; k <= maxLen && k <= n; k++ {
		p := 1
		for i := 0; i < k; i++ {
			p *= n - i
		}
		total += p
	}
	return total
}
