package shard

import (
	"fmt"
	"maps"
	"sync"
)

// This file is the elastic resource autoscaler, split the way the paper
// splits recommender and engine: Propose is the pure policy (one
// window's metrics in, a target shard count and pool width out), and an
// Updater applies proposals to a live Cluster — or only counts them in
// dry-run mode — refusing any action outside its declared min/max
// bounds.

// WindowMetrics is one sliding window's observation, the autoscaler's
// entire input.
type WindowMetrics struct {
	// Window is the observation's sequence number (the updater's
	// cooldown clock).
	Window int
	// Queries is the number of completed queries in the window.
	Queries int
	// MeanSeconds is the mean simulated cost per query.
	MeanSeconds float64
	// GoalLevel is the graded goal satisfaction over the window's CFC,
	// in [0,1].
	GoalLevel float64
	// QueueDepth is the admission backlog read once, when the window
	// closes.
	QueueDepth float64
}

// State is the resource configuration the autoscaler manages.
type State struct {
	Shards int
	Pool   int
}

// Propose is the autoscaler's policy: four stock rules tried in priority
// order, each multiplying the shard count and/or the pool width (a zero
// factor leaves that resource alone, results clamp below at 1). The
// first rule that fires and changes the state wins; a fired rule whose
// step is a no-op (scale-in at the 1/1 floor) falls through to the next.
// Goal violations scale out first, then latency, then backlog widens the
// pool; scale-in is last, so it is reached only when every scale-out
// condition is calm. The Queries guards hold a rule off on a window too
// small to decide on. It returns cur when nothing fires.
//
// Propose takes and returns values — the autoscaler's propose/apply
// split: proposing a scale change must never mutate cluster state (only
// Updater.Apply may).
func Propose(cur State, w WindowMetrics, targetSeconds float64) State {
	full := w.Queries >= 8
	rules := [...]struct {
		fired        bool
		shards, pool float64
	}{
		{full && w.GoalLevel < 0.90, 2, 0},                  // scale-out-goal
		{full && w.MeanSeconds > targetSeconds, 2, 0},       // scale-out-latency
		{w.Queries >= 1 && w.QueueDepth > 8, 0, 2},          // scale-out-backlog
		{full && w.MeanSeconds < targetSeconds/4, 0.5, 0.5}, // scale-in-idle
	}
	for _, r := range rules {
		if !r.fired {
			continue
		}
		next := cur
		if r.shards > 0 {
			next.Shards = scaleBy(cur.Shards, r.shards)
		}
		if r.pool > 0 {
			next.Pool = scaleBy(cur.Pool, r.pool)
		}
		if next != cur {
			return next
		}
	}
	return cur
}

func scaleBy(n int, f float64) int {
	return max(1, int(float64(n)*f+0.5))
}

// Bounds is the updater's safety rail: proposals outside the declared
// ranges are refused, never clamped — a refusal is counted, a silent
// clamp would hide that the policy and the rail disagree. Zero maxima
// mean "no upper bound"; minima below 1 normalize to 1.
type Bounds struct {
	MinShards, MaxShards int
	MinPool, MaxPool     int
}

// check returns a non-empty refusal reason when the state is out of
// bounds.
func (b Bounds) check(s State) string {
	if min := max(1, b.MinShards); s.Shards < min {
		return fmt.Sprintf("shards %d below min %d", s.Shards, min)
	}
	if b.MaxShards > 0 && s.Shards > b.MaxShards {
		return fmt.Sprintf("shards %d above max %d", s.Shards, b.MaxShards)
	}
	if min := max(1, b.MinPool); s.Pool < min {
		return fmt.Sprintf("pool %d below min %d", s.Pool, min)
	}
	if b.MaxPool > 0 && s.Pool > b.MaxPool {
		return fmt.Sprintf("pool %d above max %d", s.Pool, b.MaxPool)
	}
	return ""
}

// Actions an Updater takes on one window.
const (
	ActionHold     = "hold"     // nothing proposed this window
	ActionApply    = "apply"    // proposal applied to the cluster
	ActionRefuse   = "refuse"   // proposal outside bounds, not applied
	ActionDryRun   = "dry-run"  // dry-run mode: counted, not applied
	ActionError    = "error"    // apply attempted and failed
	ActionCooldown = "cooldown" // proposal held: a recent action is still settling
)

// Updater owns the side-effecting half of the autoscaler: it takes one
// proposal per window, enforces the bounds, and either applies it to the
// target cluster or — in dry-run mode — only counts what it would have
// done.
type Updater struct {
	target *Cluster
	bounds Bounds
	// cooldown is the hysteresis window: after an action (apply, dry-run,
	// or a failed apply — anything that would have touched the cluster), a
	// proposal arriving within cooldown windows is held with
	// ActionCooldown instead of applied. Metrics gathered while a reshard
	// is still settling reflect the transition, not the steady state;
	// acting on them oscillates. Zero or negative disables the cooldown.
	cooldown int
	dryRun   bool

	mu         sync.Mutex
	actions    map[string]int64 // conflint:guardedby mu (windows by action, all time)
	lastAction int              // conflint:guardedby mu (window of the most recent action)
	hasAction  bool             // conflint:guardedby mu
}

// NewUpdater builds an updater for a cluster.
func NewUpdater(target *Cluster, bounds Bounds, cooldown int, dryRun bool) *Updater {
	return &Updater{target: target, bounds: bounds, cooldown: cooldown, dryRun: dryRun, actions: make(map[string]int64, 4)}
}

// Apply acts on one window's proposal, moving the cluster from cur to
// next (next == cur is a hold), and returns the action taken with its
// reason. The whole evaluation runs under u.mu so concurrent callers
// serialize: the cooldown check, the action and the count are one atomic
// step (lock order Updater.mu → cluster locks; nothing takes Updater.mu
// with a cluster lock held).
func (u *Updater) Apply(window int, cur, next State) (action, reason string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	action = ActionHold
	if next != cur {
		reason = fmt.Sprintf("shards %d -> %d, pool %d -> %d", cur.Shards, next.Shards, cur.Pool, next.Pool)
		cooling := u.cooldown > 0 && u.hasAction && window-u.lastAction <= u.cooldown
		if refusal := u.bounds.check(next); refusal != "" {
			action, reason = ActionRefuse, refusal
		} else if cooling {
			action = ActionCooldown
			reason = fmt.Sprintf("cooling down: last action at window %d, cooldown %d windows", u.lastAction, u.cooldown)
		} else if u.dryRun {
			action = ActionDryRun
			u.lastAction, u.hasAction = window, true
		} else {
			action = ActionApply
			if err := u.move(cur, next); err != nil {
				action, reason = ActionError, err.Error()
			}
			// Errored applies start the cooldown too: a failed reshard may
			// have widened the pool, and retrying every window is the
			// oscillation the cooldown exists to damp.
			u.lastAction, u.hasAction = window, true
		}
	}
	u.actions[action]++
	return action, reason
}

// move mutates the cluster: pool first (instant), then the reshard
// (expensive, live-swapped).
func (u *Updater) move(cur, next State) error {
	if u.target == nil {
		return fmt.Errorf("shard: updater has no target cluster")
	}
	if next.Pool != cur.Pool {
		u.target.SetPool(next.Pool)
	}
	if next.Shards != cur.Shards {
		return u.target.Reshard(next.Shards)
	}
	return nil
}

// Actions returns a copy of the per-action window counts.
func (u *Updater) Actions() map[string]int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return maps.Clone(u.actions)
}
