package shard

import (
	"maps"
	"testing"
)

// ruleFixture is one window and the state Propose must move cur to at a
// 10-second target (want == cur is a hold).
type ruleFixture struct {
	name string
	cur  State
	w    WindowMetrics
	want State
}

var ruleFixtures = []ruleFixture{
	{
		name: "goal-violation-scales-out",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 1, Queries: 20, MeanSeconds: 5, GoalLevel: 0.50, QueueDepth: 0},
		want: State{Shards: 4, Pool: 4},
	},
	{
		name: "latency-scales-out",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 2, Queries: 20, MeanSeconds: 25, GoalLevel: 0.95, QueueDepth: 0},
		want: State{Shards: 4, Pool: 4},
	},
	{
		name: "backlog-widens-pool",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 3, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 12},
		want: State{Shards: 2, Pool: 8},
	},
	{
		name: "idle-scales-in",
		cur:  State{Shards: 4, Pool: 8},
		w:    WindowMetrics{Window: 4, Queries: 20, MeanSeconds: 1, GoalLevel: 1.0, QueueDepth: 0},
		want: State{Shards: 2, Pool: 4},
	},
	{
		name: "calm-window-holds",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 5, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 2},
		want: State{Shards: 2, Pool: 4},
	},
	{
		name: "min-queries-guards-noise",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 6, Queries: 3, MeanSeconds: 25, GoalLevel: 0.10, QueueDepth: 0},
		want: State{Shards: 2, Pool: 4},
	},
	{
		name: "goal-beats-latency-first-fire-wins",
		cur:  State{Shards: 2, Pool: 4},
		w:    WindowMetrics{Window: 7, Queries: 20, MeanSeconds: 25, GoalLevel: 0.50, QueueDepth: 12},
		want: State{Shards: 4, Pool: 4},
	},
	{
		name: "fired-noop-falls-through",
		// scale-in at the 1/1 floor is a no-op, so the fired rule yields
		// no proposal.
		cur:  State{Shards: 1, Pool: 1},
		w:    WindowMetrics{Window: 8, Queries: 20, MeanSeconds: 1, GoalLevel: 1.0, QueueDepth: 0},
		want: State{Shards: 1, Pool: 1},
	},
	{
		name: "all-errored-holds",
		// Every completion in the window errored: no query finished, so
		// the zero mean and goal level are no evidence, and even a deep
		// backlog is held off.
		cur:  State{Shards: 4, Pool: 8},
		w:    WindowMetrics{Window: 9, Queries: 0, QueueDepth: 12},
		want: State{Shards: 4, Pool: 8},
	},
}

// TestScalingRuleDecisions runs Propose over the fixtures: each stock
// rule firing alone, a calm window, the Queries guard, rule priority,
// the no-op fall-through and an all-errored window.
func TestScalingRuleDecisions(t *testing.T) {
	for _, fx := range ruleFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if got := Propose(fx.cur, fx.w, 10); got != fx.want {
				t.Errorf("Propose(%+v) = %+v, want %+v", fx.cur, got, fx.want)
			}
		})
	}
}

// TestProposeProperties checks Propose over every current state with
// shards and pool in 1..16 against the fixture windows: no output field
// drops below 1, and the output equals cur exactly when no fired rule's
// step would change it. The rules are restated here as the oracle.
func TestProposeProperties(t *testing.T) {
	const target = 10
	rules := []struct {
		fires        func(WindowMetrics) bool
		shards, pool float64
	}{
		{func(w WindowMetrics) bool { return w.Queries >= 8 && w.GoalLevel < 0.90 }, 2, 0},
		{func(w WindowMetrics) bool { return w.Queries >= 8 && w.MeanSeconds > target }, 2, 0},
		{func(w WindowMetrics) bool { return w.Queries >= 1 && w.QueueDepth > 8 }, 0, 2},
		{func(w WindowMetrics) bool { return w.Queries >= 8 && w.MeanSeconds < target/4 }, 0.5, 0.5},
	}
	scale := func(n int, f float64) int {
		if f == 0 {
			return n
		}
		return max(1, int(float64(n)*f+0.5))
	}
	for _, fx := range ruleFixtures {
		for shards := 1; shards <= 16; shards++ {
			for pool := 1; pool <= 16; pool++ {
				cur := State{Shards: shards, Pool: pool}
				got := Propose(cur, fx.w, target)
				if got.Shards < 1 || got.Pool < 1 {
					t.Fatalf("%s: Propose(%+v) = %+v, below 1", fx.name, cur, got)
				}
				changes := false
				for _, r := range rules {
					step := State{Shards: scale(shards, r.shards), Pool: scale(pool, r.pool)}
					changes = changes || r.fires(fx.w) && step != cur
				}
				if (got == cur) == changes {
					t.Fatalf("%s: Propose(%+v) = %+v, yet some fired rule's step changes the state = %v", fx.name, cur, got, changes)
				}
			}
		}
	}
}

// TestUpdaterBoundsRefusal: proposals outside the declared bounds are
// refused — not clamped, not applied — and each refusal says which
// bound it broke.
func TestUpdaterBoundsRefusal(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(cl, Bounds{MinShards: 2, MaxShards: 4, MinPool: 1, MaxPool: 8}, 0, false)

	cur := State{Shards: 4, Pool: 4}
	cases := []struct {
		next   State
		reason string
	}{
		{State{Shards: 8, Pool: 4}, "shards 8 above max 4"},
		{State{Shards: 1, Pool: 4}, "shards 1 below min 2"},
		{State{Shards: 4, Pool: 16}, "pool 16 above max 8"},
	}
	for _, tc := range cases {
		action, reason := u.Apply(1, cur, tc.next)
		if action != ActionRefuse || reason != tc.reason {
			t.Errorf("Apply(%+v) = %q, %q; want refuse, %q", tc.next, action, reason, tc.reason)
		}
	}
	if cl.Shards() != 4 || cl.Pool() != 4 {
		t.Errorf("cluster mutated by refused proposals: shards=%d pool=%d", cl.Shards(), cl.Pool())
	}
	if got := u.Actions(); !maps.Equal(got, map[string]int64{ActionRefuse: 3}) {
		t.Errorf("Actions() = %v, want 3 refusals", got)
	}
}

// TestUpdaterDryRun: in dry-run mode every proposal is counted and
// nothing is applied.
func TestUpdaterDryRun(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, 0, true)

	cur := State{Shards: cl.Shards(), Pool: cl.Pool()}
	next := Propose(cur, WindowMetrics{Window: 1, Queries: 20, MeanSeconds: 5, GoalLevel: 0.5}, 10)
	if next != (State{Shards: 4, Pool: 4}) {
		t.Fatalf("Propose = %+v, want 4 shards, pool 4", next)
	}
	if action, reason := u.Apply(1, cur, next); action != ActionDryRun || reason != "shards 2 -> 4, pool 4 -> 4" {
		t.Fatalf("Apply = %q, %q; want dry-run, shards 2 -> 4, pool 4 -> 4", action, reason)
	}
	if cl.Shards() != 2 || cl.Pool() != 4 {
		t.Errorf("dry-run mutated the cluster: shards=%d pool=%d", cl.Shards(), cl.Pool())
	}
	if st := cl.Stats(); st.Reshards != 0 {
		t.Errorf("dry-run resharded %d times", st.Reshards)
	}

	// A hold window is counted too.
	calm := Propose(cur, WindowMetrics{Window: 2, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 1}, 10)
	if action, reason := u.Apply(2, cur, calm); action != ActionHold || reason != "" {
		t.Errorf("calm window = %q, %q; want hold with no reason", action, reason)
	}
	if got := u.Actions(); !maps.Equal(got, map[string]int64{ActionDryRun: 1, ActionHold: 1}) {
		t.Errorf("Actions() = %v, want one dry-run and one hold", got)
	}
}

// TestUpdaterCooldown drives a fixed window sequence through an updater
// with a 2-window cooldown and pins the resulting actions — the
// hysteresis contract: actions start the cooldown, proposals inside it
// are held with ActionCooldown, refusals and holds never start one.
func TestUpdaterCooldown(t *testing.T) {
	from := State{Shards: 2, Pool: 4}
	to := func(shards int) State { return State{Shards: shards, Pool: 4} }
	u := NewUpdater(nil, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, 2, true)

	seq := []struct {
		window int
		next   State
		want   string
	}{
		{1, to(4), ActionDryRun},   // action: cooldown starts at window 1
		{2, to(4), ActionCooldown}, // 2-1 <= 2: held
		{3, from, ActionHold},      // no proposal: plain hold, no cooldown reset
		{3, to(4), ActionCooldown}, // 3-1 <= 2: still held
		{4, to(4), ActionDryRun},   // 4-1 > 2: cooldown expired, acts again
		{5, to(16), ActionRefuse},  // out of bounds: refused even though cooling
		{5, to(99), ActionRefuse},  // refusals precede the cooldown check
		{7, to(4), ActionDryRun},   // 7-4 > 2: refusals did not extend the cooldown
		{8, to(4), ActionCooldown}, // the window-7 action did
	}
	for i, s := range seq {
		action, reason := u.Apply(s.window, from, s.next)
		if action != s.want {
			t.Errorf("step %d (window %d): action %q, want %q", i, s.window, action, s.want)
		}
		if i == 1 && reason != "cooling down: last action at window 1, cooldown 2 windows" {
			t.Errorf("step 1 cooldown reason = %q", reason)
		}
	}
	want := map[string]int64{ActionDryRun: 3, ActionCooldown: 3, ActionHold: 1, ActionRefuse: 2}
	if got := u.Actions(); !maps.Equal(got, want) {
		t.Errorf("Actions() = %v, want %v", got, want)
	}

	// Cooldown zero disables hysteresis entirely.
	u2 := NewUpdater(nil, Bounds{MaxShards: 8, MaxPool: 16}, 0, true)
	for w := 1; w <= 3; w++ {
		if action, _ := u2.Apply(w, from, to(4)); action != ActionDryRun {
			t.Errorf("window %d without cooldown: action %q, want dry-run", w, action)
		}
	}

	// A live (non-dry-run) apply starts the cooldown and the held window
	// leaves the cluster untouched.
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u3 := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, 1, false)
	if action, reason := u3.Apply(1, from, to(4)); action != ActionApply {
		t.Fatalf("live apply: %q, %q", action, reason)
	}
	if action, reason := u3.Apply(2, to(4), from); action != ActionCooldown {
		t.Fatalf("cooling live proposal: %q, %q", action, reason)
	}
	if cl.Shards() != 4 {
		t.Errorf("cluster at %d shards, want 4 (cooldown must not apply)", cl.Shards())
	}
	if st := cl.Stats(); st.Reshards != 1 {
		t.Errorf("Reshards = %d, want 1", st.Reshards)
	}
}

// TestUpdaterApplies: outside dry-run, an in-bounds proposal reshards
// the live cluster and results stay identical; with no cluster to move,
// the apply errors.
func TestUpdaterApplies(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := clusterQueries[2]
	before, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}
	u := NewUpdater(cl, bounds, 0, false)
	cur, next := State{Shards: 2, Pool: 2}, State{Shards: 4, Pool: 4}
	if action, reason := u.Apply(1, cur, next); action != ActionApply || reason != "shards 2 -> 4, pool 2 -> 4" {
		t.Fatalf("Apply = %q, %q; want apply, shards 2 -> 4, pool 2 -> 4", action, reason)
	}
	if cl.Shards() != 4 || cl.Pool() != 4 {
		t.Fatalf("cluster at %d shards / pool %d, want 4/4", cl.Shards(), cl.Pool())
	}
	if got := u.Actions(); !maps.Equal(got, map[string]int64{ActionApply: 1}) {
		t.Errorf("Actions() = %v, want one apply", got)
	}
	after, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(before) != render(after) {
		t.Error("result changed across an applied scale action")
	}

	orphan := NewUpdater(nil, bounds, 0, false)
	if action, reason := orphan.Apply(1, cur, next); action != ActionError || reason != "shard: updater has no target cluster" {
		t.Errorf("Apply without a cluster = %q, %q; want error", action, reason)
	}
}

// TestUpdaterCountsEveryWindow: a long-running updater's per-action
// counts cover every window it was handed.
func TestUpdaterCountsEveryWindow(t *testing.T) {
	u := NewUpdater(nil, Bounds{MinShards: 1, MaxShards: 4, MinPool: 1, MaxPool: 16}, 1, true)
	const n = 515
	cur := State{Shards: 2, Pool: 4}
	want := map[string]int64{}
	for w := 1; w <= n; w++ {
		next := cur
		if w%3 != 0 {
			next.Shards = 4 * (1 + w%5/4)
		}
		action, _ := u.Apply(w, cur, next)
		want[action]++
	}
	if len(want) != 4 {
		t.Fatalf("sequence exercised %v; want holds, dry-runs, cooldowns and refusals", want)
	}
	if got := u.Actions(); !maps.Equal(got, want) {
		t.Errorf("Actions() = %v, want %v", got, want)
	}
}
