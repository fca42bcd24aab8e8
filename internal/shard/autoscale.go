package shard

import (
	"fmt"
	"maps"
	"strconv"
	"sync"
)

// This file is the elastic resource autoscaler, modeled on the
// recommender/updater split of cluster autoscalers: a Recommender turns
// sliding-window metrics into shard-count and pool-width proposals via
// declarative boolean scaling rules (every rule's fire/hold decision is
// recorded, first fired rule wins), and an Updater applies proposals to a
// live Cluster — or only audits them in dry-run mode — refusing any
// action outside its declared min/max bounds.
//
// The split mirrors the paper's recommender/engine separation: the
// Recommender is pure (metrics in, proposal out, fully auditable and
// testable against golden fixtures), and every side effect lives in the
// Updater.

// WindowMetrics is one sliding window's observation, the autoscaler's
// entire input.
type WindowMetrics struct {
	// Window is the observation's sequence number (for audit ordering).
	Window int
	// Queries is the number of completed queries in the window.
	Queries int
	// MeanSeconds is the mean simulated cost per query.
	MeanSeconds float64
	// GoalLevel is the graded goal satisfaction over the window's CFC,
	// in [0,1].
	GoalLevel float64
	// QueueDepth is the mean admission queue depth over the window.
	QueueDepth float64
}

// metric returns the named metric's value.
func (w WindowMetrics) metric(name string) (float64, bool) {
	switch name {
	case "goal_level":
		return w.GoalLevel, true
	case "mean_seconds":
		return w.MeanSeconds, true
	case "queue_depth":
		return w.QueueDepth, true
	case "queries":
		return float64(w.Queries), true
	}
	return 0, false
}

// State is the resource configuration the autoscaler manages.
type State struct {
	Shards int
	Pool   int
}

// ScalingRule is one declarative boolean rule: when Metric Op Threshold
// holds, propose multiplying the shard count by ShardFactor and/or the
// pool width by PoolFactor (a zero factor leaves that resource alone).
// Rules are evaluated in order and the first fired rule that changes the
// state wins, so earlier rules encode higher priority (scale-out before
// scale-in).
type ScalingRule struct {
	Name      string
	Metric    string
	Op        string // "<" or ">"
	Threshold float64
	// MinQueries holds the rule off until the window has at least this
	// many completed queries (guards against deciding on noise).
	MinQueries  int
	ShardFactor float64
	PoolFactor  float64
}

// fired reports whether the rule's condition holds for the window.
func (r ScalingRule) fired(w WindowMetrics) (float64, bool) {
	v, ok := w.metric(r.Metric)
	if !ok || w.Queries < r.MinQueries {
		return v, false
	}
	switch r.Op {
	case "<":
		return v, v < r.Threshold
	case ">":
		return v, v > r.Threshold
	}
	return v, false
}

// target applies the rule's factors to a state, clamped below at 1.
func (r ScalingRule) target(cur State) State {
	next := cur
	if r.ShardFactor > 0 {
		next.Shards = scaleBy(cur.Shards, r.ShardFactor)
	}
	if r.PoolFactor > 0 {
		next.Pool = scaleBy(cur.Pool, r.PoolFactor)
	}
	return next
}

func scaleBy(n int, f float64) int {
	out := int(float64(n)*f + 0.5)
	if out < 1 {
		out = 1
	}
	return out
}

// DefaultRules is the stock rule set, parameterized by the per-query
// simulated-seconds target. Order is priority: goal violations scale out
// first, then latency, then backlog widens the pool; scale-in is last and
// therefore only reached when every scale-out condition is calm.
func DefaultRules(targetSeconds float64) []ScalingRule {
	return []ScalingRule{
		{Name: "scale-out-goal", Metric: "goal_level", Op: "<", Threshold: 0.90, MinQueries: 8, ShardFactor: 2},
		{Name: "scale-out-latency", Metric: "mean_seconds", Op: ">", Threshold: targetSeconds, MinQueries: 8, ShardFactor: 2},
		{Name: "scale-out-backlog", Metric: "queue_depth", Op: ">", Threshold: 8, MinQueries: 1, PoolFactor: 2},
		{Name: "scale-in-idle", Metric: "mean_seconds", Op: "<", Threshold: targetSeconds / 4, MinQueries: 8, ShardFactor: 0.5, PoolFactor: 0.5},
	}
}

// Decision is the audit record of one rule's evaluation against one
// window.
type Decision struct {
	Rule      string  `json:"rule"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	Fired     bool    `json:"fired"`
}

// Proposal is a concrete scale action derived from a fired rule.
type Proposal struct {
	Rule       string `json:"rule"`
	FromShards int    `json:"from_shards"`
	ToShards   int    `json:"to_shards"`
	FromPool   int    `json:"from_pool"`
	ToPool     int    `json:"to_pool"`
	Reason     string `json:"reason"`
	// PredictedSeconds is the Amdahl-model mean query cost at the proposed
	// shard count (0 when no predictor was configured or no data exists).
	PredictedSeconds float64 `json:"predicted_seconds"`
}

// Recommendation is the Recommender's full output for one window: every
// rule's decision plus at most one proposal (nil = hold).
type Recommendation struct {
	Window    int        `json:"window"`
	Decisions []Decision `json:"decisions"`
	Proposal  *Proposal  `json:"proposal,omitempty"`
}

// Recommender derives scale proposals from window metrics. It is pure:
// no clock, no side effects, deterministic output for a given input.
type Recommender struct {
	Rules []ScalingRule
	// Predict, when set, prices a proposed shard count in mean simulated
	// seconds per query (Cluster.PredictSeconds fits the signature).
	Predict func(targetShards int) float64
}

// Recommend evaluates every rule against the window, records each
// fire/hold decision, and returns the first fired rule's target as the
// proposal — skipping fired rules whose target is a no-op (already at
// the proposed state).
//
// conflint:pure — the autoscaler's propose/apply split: proposing a
// scale change must never mutate cluster state (only Updater.Apply may).
func (r *Recommender) Recommend(cur State, w WindowMetrics) Recommendation {
	rec := Recommendation{Window: w.Window, Decisions: make([]Decision, 0, len(r.Rules))}
	for _, rule := range r.Rules {
		v, fired := rule.fired(w)
		rec.Decisions = append(rec.Decisions, Decision{
			Rule: rule.Name, Metric: rule.Metric, Value: v,
			Op: rule.Op, Threshold: rule.Threshold, Fired: fired,
		})
		if !fired || rec.Proposal != nil {
			continue
		}
		next := rule.target(cur)
		if next == cur {
			continue // no-op: keep looking for a rule that changes something
		}
		p := &Proposal{
			Rule:       rule.Name,
			FromShards: cur.Shards, ToShards: next.Shards,
			FromPool: cur.Pool, ToPool: next.Pool,
			Reason: rule.Metric + " " + rule.Op + " " + strconv.FormatFloat(rule.Threshold, 'g', -1, 64) +
				" (observed " + strconv.FormatFloat(v, 'g', -1, 64) + ")",
		}
		if r.Predict != nil && next.Shards != cur.Shards {
			p.PredictedSeconds = r.Predict(next.Shards)
		}
		rec.Proposal = p
	}
	return rec
}

// Bounds is the updater's safety rail: proposals outside the declared
// ranges are refused, never clamped — a refusal is loud in the audit
// trail, a silent clamp would hide that the rule set and the rail
// disagree. Zero maxima mean "no upper bound"; minima below 1 normalize
// to 1.
type Bounds struct {
	MinShards int `json:"min_shards"`
	MaxShards int `json:"max_shards"`
	MinPool   int `json:"min_pool"`
	MaxPool   int `json:"max_pool"`
}

// check returns a non-empty refusal reason when the state is out of
// bounds.
func (b Bounds) check(s State) string {
	if min := max1(b.MinShards); s.Shards < min {
		return fmt.Sprintf("shards %d below min %d", s.Shards, min)
	}
	if b.MaxShards > 0 && s.Shards > b.MaxShards {
		return fmt.Sprintf("shards %d above max %d", s.Shards, b.MaxShards)
	}
	if min := max1(b.MinPool); s.Pool < min {
		return fmt.Sprintf("pool %d below min %d", s.Pool, min)
	}
	if b.MaxPool > 0 && s.Pool > b.MaxPool {
		return fmt.Sprintf("pool %d above max %d", s.Pool, b.MaxPool)
	}
	return ""
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Action values of an AuditRecord.
const (
	ActionHold     = "hold"     // no proposal this window
	ActionApply    = "apply"    // proposal applied to the cluster
	ActionRefuse   = "refuse"   // proposal outside bounds, not applied
	ActionDryRun   = "dry-run"  // dry-run mode: audited, not applied
	ActionError    = "error"    // apply attempted and failed
	ActionCooldown = "cooldown" // proposal held: a recent action is still settling
)

// AuditRecord is the updater's trace of one recommendation.
type AuditRecord struct {
	Window   int       `json:"window"`
	Action   string    `json:"action"`
	Rule     string    `json:"rule,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	Proposal *Proposal `json:"proposal,omitempty"`
	Err      string    `json:"err,omitempty"`
}

// Updater owns the side-effecting half of the autoscaler: it takes
// recommendations, enforces Bounds, and either applies them to the
// target cluster or — in DryRun mode — only records what it would have
// done. Every recommendation produces exactly one audit record; the
// trail keeps the most recent auditKeep of them, and per-action counts
// cover all.
type Updater struct {
	Bounds Bounds
	DryRun bool
	Target *Cluster
	// Cooldown is the hysteresis window: after an action (apply, dry-run,
	// or a failed apply — anything that would have touched the cluster), a
	// proposal arriving within Cooldown windows is held with
	// ActionCooldown instead of applied. Metrics gathered while a reshard
	// is still settling reflect the transition, not the steady state;
	// acting on them oscillates. Zero or negative disables the cooldown.
	Cooldown int

	mu         sync.Mutex
	audit      []AuditRecord    // conflint:guardedby mu (the last auditKeep records)
	actions    map[string]int64 // conflint:guardedby mu (records by Action, all time)
	lastAction int              // conflint:guardedby mu (window of the most recent action)
	hasAction  bool             // conflint:guardedby mu
}

// auditKeep bounds the audit trail: a long-running autoscaler audits
// every window, and only the recent ones explain its current state.
const auditKeep = 256

// NewUpdater builds an updater for a cluster.
func NewUpdater(target *Cluster, bounds Bounds, dryRun bool) *Updater {
	return &Updater{Bounds: bounds, DryRun: dryRun, Target: target}
}

// Apply executes (or audits) one recommendation and returns its audit
// record. The whole evaluation runs under u.mu so concurrent callers
// serialize: the cooldown check, the action, and the audit append are
// one atomic step (lock order Updater.mu → cluster locks; nothing takes
// Updater.mu with a cluster lock held).
func (u *Updater) Apply(rec Recommendation) AuditRecord {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := AuditRecord{Window: rec.Window, Action: ActionHold}
	if p := rec.Proposal; p != nil {
		out.Rule = p.Rule
		out.Reason = p.Reason
		out.Proposal = p
		cooling := u.Cooldown > 0 && u.hasAction && rec.Window-u.lastAction <= u.Cooldown
		if refusal := u.Bounds.check(State{Shards: p.ToShards, Pool: p.ToPool}); refusal != "" {
			out.Action = ActionRefuse
			out.Reason = refusal
		} else if cooling {
			out.Action = ActionCooldown
			out.Reason = fmt.Sprintf("cooling down: last action at window %d, cooldown %d windows", u.lastAction, u.Cooldown)
		} else if u.DryRun {
			out.Action = ActionDryRun
			u.lastAction, u.hasAction = rec.Window, true
		} else {
			out.Action = ActionApply
			if err := u.applyProposal(p); err != nil {
				out.Action = ActionError
				out.Err = err.Error()
			}
			// Errored applies start the cooldown too: a failed reshard may
			// have widened the pool, and retrying every window is the
			// oscillation the cooldown exists to damp.
			u.lastAction, u.hasAction = rec.Window, true
		}
	}
	if len(u.audit) == auditKeep {
		u.audit = append(u.audit[:0], u.audit[1:]...)
	}
	u.audit = append(u.audit, out)
	if u.actions == nil {
		u.actions = make(map[string]int64, 4)
	}
	u.actions[out.Action]++
	return out
}

// applyProposal mutates the cluster: pool first (instant), then the
// reshard (expensive, live-swapped).
func (u *Updater) applyProposal(p *Proposal) error {
	if u.Target == nil {
		return fmt.Errorf("shard: updater has no target cluster")
	}
	if p.ToPool != p.FromPool {
		u.Target.SetPool(p.ToPool)
	}
	if p.ToShards != p.FromShards {
		return u.Target.Reshard(p.ToShards)
	}
	return nil
}

// Actions returns a copy of the per-action record counts (nil before
// the first record).
func (u *Updater) Actions() map[string]int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return maps.Clone(u.actions)
}
