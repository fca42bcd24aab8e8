package recommender

import (
	"math"
	"slices"

	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/engine"
)

// Loop is the retune loop both online owners share — the autopilot's
// window loop and the gateway's tuner. It decides whether an observed
// workload warrants a retune, recommends a configuration for it and
// predicts that configuration's cost on one long-lived what-if session,
// and records the outcome. It never applies a configuration: each owner
// makes its own static Transition call, so the lint's call graph still
// sees every apply. The owner serializes Decide and Retune.
type Loop struct {
	// Threshold is the share of the mix that must move from the mix last
	// tuned for before the mix counts as shifted.
	Threshold float64
	// Timeout caps each query's predicted seconds (0 = no cap).
	Timeout float64

	eng    *engine.Engine
	rec    *Recommender // nil: the paper's 1C reference configuration
	budget int64

	// whatif is the one session the search and the prediction share: the
	// prediction finds the winner's estimates already cached, and the
	// session flushes itself when a Transition publishes a new snapshot.
	whatif *engine.WhatIf

	// tuned is the mix of the last retune as shares; nil before the first.
	tuned map[string]float64
}

// RetuneRecord documents one retune: why it was triggered, what the
// what-if estimator promised, what the owner's Transition built, or why
// the retune failed. WallMS is the only wall-clock field and never
// appears in rendered reports.
type RetuneRecord struct {
	// Window is the index of the autopilot report that triggered the
	// tune (-1 for the warmup tune that precedes traffic).
	Window int
	Reason string
	Name   string

	Built, Kept, Dropped int
	BuildSeconds         float64

	// PredictedMean is the what-if mean seconds per query for the
	// triggering queries under the new configuration.
	PredictedMean float64

	WallMS int64
	Err    string
}

// NewLoop opens a loop over eng. profile is a recommender profile name
// or "1C"; budget is the storage budget the search recommends under.
func NewLoop(eng *engine.Engine, profile string, budget int64) (*Loop, error) {
	l := &Loop{eng: eng, budget: budget, whatif: eng.NewWhatIf()}
	if profile != "1C" {
		cfg, err := System(profile)
		if err != nil {
			return nil, err
		}
		l.rec = New(eng, cfg).UseSession(l.whatif)
	}
	return l, nil
}

// Decide applies the retune rule to one observation and returns the
// reason to retune, or "" for none. mix counts the workload by key (the
// autopilot's query families, the gateway's distinct recent SQL texts).
// A mix that moved more than Threshold from the one last tuned for
// always retunes — the configuration was chosen for a different
// workload. A goal violation alone retunes only before the first
// retune: once the loop has tuned, retrying the same problem would
// churn structures for nothing.
//
// Decide changes nothing — the propose/apply split: deciding is an
// observation, and only Retune records a mix as tuned for. A Decide that
// mutated the loop could skew every later decision; TestControllerConsider
// asks it twice on a cold start and requires the same answer.
func (l *Loop) Decide(mix map[string]int, violated bool) string {
	shifted := l.tuned != nil && halfL1(shares(mix), l.tuned) > l.Threshold
	switch {
	case shifted && violated:
		return "mix-shift+goal-violation"
	case shifted:
		return "mix-shift"
	case violated && l.tuned == nil:
		return "goal-violation"
	}
	return ""
}

// Retune records mix as the one tuned for — a failed retune counts too,
// since retrying it would fail the same way — then recommends a
// configuration for the distinct texts of sqls and predicts its mean
// seconds per query over sqls as given, duplicates included. The record
// carries the reason and the prediction, or the error that ended the
// retune; the returned configuration is the caller's to name and apply.
func (l *Loop) Retune(reason string, mix map[string]int, sqls []string) (conf.Configuration, RetuneRecord) {
	l.tuned = shares(mix)
	rec := RetuneRecord{Reason: reason}
	var cfg conf.Configuration
	if l.rec == nil {
		cfg = engine.OneColumnConfiguration(l.eng)
	} else {
		var err error
		if cfg, err = l.rec.Recommend(distinct(sqls), l.budget); err != nil {
			rec.Err = err.Error()
			return cfg, rec
		}
	}
	// Predict before the owner applies: the what-if mean under the
	// candidate, seen from the current configuration.
	hyp, err := core.WhatIfWorkload(l.whatif, sqls, cfg)
	if err != nil {
		rec.Err = err.Error()
		return cfg, rec
	}
	var total float64
	for _, m := range hyp {
		s := m.Seconds
		if l.Timeout > 0 {
			s = min(s, l.Timeout)
		}
		total += s
	}
	if len(hyp) > 0 {
		rec.PredictedMean = total / float64(len(hyp))
	}
	return cfg, rec
}

// distinct returns the sorted distinct texts of a workload: the search
// wants the workload's support, not its multiset.
func distinct(sqls []string) []string {
	out := slices.Clone(sqls)
	slices.Sort(out)
	return slices.Compact(out)
}

// shares normalizes a mix's counts into fractions of its total.
func shares(mix map[string]int) map[string]float64 {
	total := 0
	for _, n := range mix {
		total += n
	}
	out := make(map[string]float64, len(mix))
	for k, n := range mix {
		out[k] = float64(n) / float64(max(total, 1))
	}
	return out
}

// halfL1 is half the L1 distance between two share maps: the share of
// the mix that moved. Keys are summed in sorted order, so the result does
// not depend on map iteration.
func halfL1(a, b map[string]float64) float64 {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var d float64
	for _, k := range slices.Compact(keys) {
		d += math.Abs(a[k] - b[k])
	}
	return d / 2
}
