package shard

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"
)

// ruleFixture is one golden case: a window, the expected fire/hold
// vector over DefaultRules(10), and the expected proposal (empty rule =
// hold).
type ruleFixture struct {
	name     string
	cur      State
	w        WindowMetrics
	fired    []bool // scale-out-goal, scale-out-latency, scale-out-backlog, scale-in-idle
	proposal string // winning rule name, "" = hold
	toShards int
	toPool   int
}

var ruleFixtures = []ruleFixture{
	{
		name:     "goal-violation-scales-out",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 1, Queries: 20, MeanSeconds: 5, GoalLevel: 0.50, QueueDepth: 0},
		fired:    []bool{true, false, false, false},
		proposal: "scale-out-goal", toShards: 4, toPool: 4,
	},
	{
		name:     "latency-scales-out",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 2, Queries: 20, MeanSeconds: 25, GoalLevel: 0.95, QueueDepth: 0},
		fired:    []bool{false, true, false, false},
		proposal: "scale-out-latency", toShards: 4, toPool: 4,
	},
	{
		name:     "backlog-widens-pool",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 3, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 12},
		fired:    []bool{false, false, true, false},
		proposal: "scale-out-backlog", toShards: 2, toPool: 8,
	},
	{
		name:     "idle-scales-in",
		cur:      State{Shards: 4, Pool: 8},
		w:        WindowMetrics{Window: 4, Queries: 20, MeanSeconds: 1, GoalLevel: 1.0, QueueDepth: 0},
		fired:    []bool{false, false, false, true},
		proposal: "scale-in-idle", toShards: 2, toPool: 4,
	},
	{
		name:     "calm-window-holds",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 5, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 2},
		fired:    []bool{false, false, false, false},
		proposal: "",
	},
	{
		name:     "min-queries-guards-noise",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 6, Queries: 3, MeanSeconds: 25, GoalLevel: 0.10, QueueDepth: 0},
		fired:    []bool{false, false, false, false},
		proposal: "",
	},
	{
		name:     "goal-beats-latency-first-fire-wins",
		cur:      State{Shards: 2, Pool: 4},
		w:        WindowMetrics{Window: 7, Queries: 20, MeanSeconds: 25, GoalLevel: 0.50, QueueDepth: 12},
		fired:    []bool{true, true, true, false},
		proposal: "scale-out-goal", toShards: 4, toPool: 4,
	},
	{
		name: "fired-noop-falls-through",
		// scale-in at the 1/1 floor is a no-op, so the fired rule yields
		// no proposal.
		cur:      State{Shards: 1, Pool: 1},
		w:        WindowMetrics{Window: 8, Queries: 20, MeanSeconds: 1, GoalLevel: 1.0, QueueDepth: 0},
		fired:    []bool{false, false, false, true},
		proposal: "",
	},
}

// TestScalingRuleDecisions covers every DefaultRule's fire and hold
// decision against golden fixtures, including rule priority and the
// no-op fall-through.
func TestScalingRuleDecisions(t *testing.T) {
	rules := DefaultRules(10)
	if len(rules) != 4 {
		t.Fatalf("DefaultRules has %d rules, fixtures assume 4", len(rules))
	}
	r := &Recommender{Rules: rules}
	for _, fx := range ruleFixtures {
		t.Run(fx.name, func(t *testing.T) {
			rec := r.Recommend(fx.cur, fx.w)
			if rec.Window != fx.w.Window {
				t.Errorf("Window = %d, want %d", rec.Window, fx.w.Window)
			}
			if len(rec.Decisions) != len(rules) {
				t.Fatalf("%d decisions, want one per rule (%d)", len(rec.Decisions), len(rules))
			}
			for i, d := range rec.Decisions {
				if d.Rule != rules[i].Name {
					t.Errorf("decision %d is for %q, want %q (audit must cover every rule in order)", i, d.Rule, rules[i].Name)
				}
				if d.Fired != fx.fired[i] {
					t.Errorf("rule %s fired=%v, want %v", d.Rule, d.Fired, fx.fired[i])
				}
			}
			if fx.proposal == "" {
				if rec.Proposal != nil {
					t.Fatalf("proposal = %+v, want hold", rec.Proposal)
				}
				return
			}
			if rec.Proposal == nil {
				t.Fatalf("no proposal, want %s", fx.proposal)
			}
			p := rec.Proposal
			if p.Rule != fx.proposal || p.ToShards != fx.toShards || p.ToPool != fx.toPool {
				t.Errorf("proposal %s → shards %d pool %d, want %s → shards %d pool %d",
					p.Rule, p.ToShards, p.ToPool, fx.proposal, fx.toShards, fx.toPool)
			}
			if p.FromShards != fx.cur.Shards || p.FromPool != fx.cur.Pool {
				t.Errorf("proposal from %d/%d, want current %d/%d", p.FromShards, p.FromPool, fx.cur.Shards, fx.cur.Pool)
			}
			if p.Reason == "" {
				t.Error("proposal has no reason")
			}
		})
	}
}

// TestRecommendationGolden pins the full JSON shape of one
// recommendation — the audit contract downstream consumers parse.
func TestRecommendationGolden(t *testing.T) {
	r := &Recommender{Rules: DefaultRules(10), Predict: func(n int) float64 { return 16.0 / float64(n) }}
	rec := r.Recommend(State{Shards: 2, Pool: 4}, WindowMetrics{Window: 9, Queries: 20, MeanSeconds: 5, GoalLevel: 0.5})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(buf.String(), "\n")
	want := `{"window":9,"decisions":[` +
		`{"rule":"scale-out-goal","metric":"goal_level","value":0.5,"op":"<","threshold":0.9,"fired":true},` +
		`{"rule":"scale-out-latency","metric":"mean_seconds","value":5,"op":">","threshold":10,"fired":false},` +
		`{"rule":"scale-out-backlog","metric":"queue_depth","value":0,"op":">","threshold":8,"fired":false},` +
		`{"rule":"scale-in-idle","metric":"mean_seconds","value":5,"op":"<","threshold":2.5,"fired":false}],` +
		`"proposal":{"rule":"scale-out-goal","from_shards":2,"to_shards":4,"from_pool":4,"to_pool":4,` +
		`"reason":"goal_level < 0.9 (observed 0.5)","predicted_seconds":4}}`
	if got != want {
		t.Errorf("recommendation JSON:\ngot  %s\nwant %s", got, want)
	}
}

// TestUpdaterBoundsRefusal: proposals outside the declared bounds are
// refused — not clamped, not applied — and the refusal is audited.
func TestUpdaterBoundsRefusal(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(cl, Bounds{MinShards: 2, MaxShards: 4, MinPool: 1, MaxPool: 8}, false)

	cases := []struct {
		name string
		p    Proposal
	}{
		{"above-max-shards", Proposal{Rule: "scale-out-goal", FromShards: 4, ToShards: 8, FromPool: 4, ToPool: 4}},
		{"below-min-shards", Proposal{Rule: "scale-in-idle", FromShards: 4, ToShards: 1, FromPool: 4, ToPool: 4}},
		{"above-max-pool", Proposal{Rule: "scale-out-backlog", FromShards: 4, ToShards: 4, FromPool: 4, ToPool: 16}},
	}
	for _, tc := range cases {
		rec := Recommendation{Window: 1, Proposal: &tc.p}
		out := u.Apply(rec)
		if out.Action != ActionRefuse {
			t.Errorf("%s: action %q, want refuse", tc.name, out.Action)
		}
		if out.Reason == "" {
			t.Errorf("%s: refusal has no reason", tc.name)
		}
	}
	if cl.Shards() != 4 || cl.Pool() != 4 {
		t.Errorf("cluster mutated by refused proposals: shards=%d pool=%d", cl.Shards(), cl.Pool())
	}
	audit := u.Audit()
	if len(audit) != len(cases) {
		t.Fatalf("%d audit records, want %d", len(audit), len(cases))
	}
	for i, a := range audit {
		if a.Action != ActionRefuse || a.Proposal == nil {
			t.Errorf("audit %d: %+v, want refusal with proposal attached", i, a)
		}
	}
}

// TestUpdaterDryRun: in dry-run mode every proposal is audited and
// nothing is applied.
func TestUpdaterDryRun(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, true)
	r := &Recommender{Rules: DefaultRules(10), Predict: cl.PredictSeconds}

	rec := r.Recommend(State{Shards: cl.Shards(), Pool: cl.Pool()},
		WindowMetrics{Window: 1, Queries: 20, MeanSeconds: 5, GoalLevel: 0.5})
	if rec.Proposal == nil {
		t.Fatal("expected a proposal")
	}
	out := u.Apply(rec)
	if out.Action != ActionDryRun {
		t.Fatalf("action %q, want dry-run", out.Action)
	}
	if cl.Shards() != 2 || cl.Pool() != 4 {
		t.Errorf("dry-run mutated the cluster: shards=%d pool=%d", cl.Shards(), cl.Pool())
	}
	if st := cl.Stats(); st.Reshards != 0 {
		t.Errorf("dry-run resharded %d times", st.Reshards)
	}
	audit := u.Audit()
	if len(audit) != 1 || audit[0].Proposal == nil || audit[0].Proposal.ToShards != 4 {
		t.Errorf("audit = %+v, want one dry-run record proposing 4 shards", audit)
	}

	// A hold window is audited too.
	hold := u.Apply(r.Recommend(State{Shards: 2, Pool: 4},
		WindowMetrics{Window: 2, Queries: 20, MeanSeconds: 5, GoalLevel: 0.95, QueueDepth: 1}))
	if hold.Action != ActionHold {
		t.Errorf("calm window action %q, want hold", hold.Action)
	}
}

// TestUpdaterCooldown drives a fixed window sequence through an updater
// with a 2-window cooldown and pins the resulting audit trail — the
// hysteresis contract: actions start the cooldown, proposals inside it
// are held with ActionCooldown, refusals and holds never start one.
func TestUpdaterCooldown(t *testing.T) {
	propose := func(w, toShards int) Recommendation {
		return Recommendation{Window: w, Proposal: &Proposal{
			Rule: "scale-out-goal", FromShards: 2, ToShards: toShards, FromPool: 4, ToPool: 4,
			Reason: "goal_level < 0.9 (observed 0.5)",
		}}
	}
	u := NewUpdater(nil, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, true)
	u.Cooldown = 2

	seq := []struct {
		rec  Recommendation
		want string
	}{
		{propose(1, 4), ActionDryRun},           // action: cooldown starts at window 1
		{propose(2, 4), ActionCooldown},         // 2-1 <= 2: held
		{Recommendation{Window: 3}, ActionHold}, // no proposal: plain hold, no cooldown reset
		{propose(3, 4), ActionCooldown},         // 3-1 <= 2: still held
		{propose(4, 4), ActionDryRun},           // 4-1 > 2: cooldown expired, acts again
		{propose(5, 16), ActionRefuse},          // out of bounds: refused even though cooling
		{propose(5, 99), ActionRefuse},          // refusals precede the cooldown check in the audit
		{propose(7, 4), ActionDryRun},           // 7-4 > 2: refusals did not extend the cooldown
		{propose(8, 4), ActionCooldown},         // the window-7 action did
	}
	for i, s := range seq {
		if out := u.Apply(s.rec); out.Action != s.want {
			t.Errorf("step %d (window %d): action %q, want %q", i, s.rec.Window, out.Action, s.want)
		}
	}

	// Golden fixture: the full audit-trail action/reason sequence is the
	// conformance contract downstream dashboards parse.
	audit := u.Audit()
	wantActions := []string{
		ActionDryRun, ActionCooldown, ActionHold, ActionCooldown,
		ActionDryRun, ActionRefuse, ActionRefuse, ActionDryRun, ActionCooldown,
	}
	if len(audit) != len(wantActions) {
		t.Fatalf("%d audit records, want %d", len(audit), len(wantActions))
	}
	for i, a := range audit {
		if a.Action != wantActions[i] {
			t.Errorf("audit %d: action %q, want %q", i, a.Action, wantActions[i])
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(audit[1]); err != nil {
		t.Fatal(err)
	}
	b := strings.TrimRight(buf.String(), "\n")
	want := `{"window":2,"action":"cooldown","rule":"scale-out-goal",` +
		`"reason":"cooling down: last action at window 1, cooldown 2 windows",` +
		`"proposal":{"rule":"scale-out-goal","from_shards":2,"to_shards":4,"from_pool":4,"to_pool":4,` +
		`"reason":"goal_level < 0.9 (observed 0.5)","predicted_seconds":0}}`
	if b != want {
		t.Errorf("cooldown audit JSON:\ngot  %s\nwant %s", b, want)
	}

	// Cooldown zero (the default) disables hysteresis entirely.
	u2 := NewUpdater(nil, Bounds{MaxShards: 8, MaxPool: 16}, true)
	for w := 1; w <= 3; w++ {
		if out := u2.Apply(propose(w, 4)); out.Action != ActionDryRun {
			t.Errorf("window %d without cooldown: action %q, want dry-run", w, out.Action)
		}
	}

	// A live (non-dry-run) apply starts the cooldown and the held window
	// leaves the cluster untouched.
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	u3 := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, false)
	u3.Cooldown = 1
	if out := u3.Apply(propose(1, 4)); out.Action != ActionApply {
		t.Fatalf("live apply: %+v", out)
	}
	if out := u3.Apply(Recommendation{Window: 2, Proposal: &Proposal{
		Rule: "scale-in-idle", FromShards: 4, ToShards: 2, FromPool: 4, ToPool: 4,
	}}); out.Action != ActionCooldown {
		t.Fatalf("cooling live proposal: %+v", out)
	}
	if cl.Shards() != 4 {
		t.Errorf("cluster at %d shards, want 4 (cooldown must not apply)", cl.Shards())
	}
	if st := cl.Stats(); st.Reshards != 1 {
		t.Errorf("Reshards = %d, want 1", st.Reshards)
	}
}

// TestUpdaterApplies: outside dry-run, an in-bounds proposal reshards
// the live cluster and results stay identical.
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
	u := NewUpdater(cl, Bounds{MinShards: 1, MaxShards: 8, MinPool: 1, MaxPool: 16}, false)
	out := u.Apply(Recommendation{Window: 1, Proposal: &Proposal{
		Rule: "scale-out-goal", FromShards: 2, ToShards: 4, FromPool: 2, ToPool: 4,
	}})
	if out.Action != ActionApply || out.Err != "" {
		t.Fatalf("apply: %+v", out)
	}
	if cl.Shards() != 4 || cl.Pool() != 4 {
		t.Fatalf("cluster at %d shards / pool %d, want 4/4", cl.Shards(), cl.Pool())
	}
	after, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(before) != render(after) {
		t.Error("result changed across an applied scale action")
	}
}

// TestUpdaterAuditBounded: a long-running updater keeps only its most
// recent audit records, while the per-action counts still cover every
// window it was handed.
func TestUpdaterAuditBounded(t *testing.T) {
	u := NewUpdater(nil, Bounds{MinShards: 1, MaxShards: 4, MinPool: 1, MaxPool: 16}, true)
	u.Cooldown = 1
	n := 2*auditKeep + 3
	want := map[string]int64{}
	for w := 1; w <= n; w++ {
		rec := Recommendation{Window: w}
		if w%3 != 0 {
			rec.Proposal = &Proposal{Rule: "scale-out-goal", FromShards: 2, ToShards: 4 * (1 + w%5/4), FromPool: 4, ToPool: 4}
		}
		want[u.Apply(rec).Action]++
	}
	if len(want) != 4 {
		t.Fatalf("sequence exercised %v; want holds, dry-runs, cooldowns and refusals", want)
	}
	audit := u.Audit()
	if len(audit) != auditKeep {
		t.Fatalf("%d audit records after %d windows, want the last %d", len(audit), n, auditKeep)
	}
	for i, a := range audit {
		if want := n - auditKeep + 1 + i; a.Window != want {
			t.Fatalf("audit %d is window %d, want %d (oldest first, most recent kept)", i, a.Window, want)
		}
	}
	if got := u.Actions(); !maps.Equal(got, want) {
		t.Errorf("Actions() = %v, want %v", got, want)
	}
}

// Audit returns a copy of the audit trail's most recent records, oldest
// first.
func (u *Updater) Audit() []AuditRecord {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make([]AuditRecord, len(u.audit))
	copy(out, u.audit)
	return out
}
