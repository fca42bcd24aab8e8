package gateway

import (
	"fmt"
	"testing"
	"time"
)

// TestShardedGatewayByteIdentical pins the cluster's contract at the
// gateway layer: result rows from a sharded gateway are identical to an
// unsharded one serving the same backend (simulated cost shrinks with
// partition parallelism — the scaling claim — so only the result bytes
// must match), and /v1/stats reports the cluster.
func TestShardedGatewayByteIdentical(t *testing.T) {
	_, plainTS := newTestGateway(t, testConfig())
	shardedCfg := testConfig()
	shardedCfg.Shards = 4
	shardedCfg.ShardPool = 4
	sharded, shardedTS := newTestGateway(t, shardedCfg)

	for i := 0; i < 4; i++ {
		family := "NREF2J"
		key := "alpha-key"
		if i%2 == 1 {
			family = "NREF3J"
			key = "beta-key"
		}
		sqlText := poolQuery(t, plainTS.URL, key, family, i)
		st1, body1, _ := postQuery(t, plainTS.URL, key, int64(i), family, sqlText)
		st2, body2, _ := postQuery(t, shardedTS.URL, key, int64(i), family, sqlText)
		if st1 != 200 || st2 != 200 {
			t.Fatalf("query %d: statuses %d/%d", i, st1, st2)
		}
		for _, field := range []string{"row_count", "cols", "rows"} {
			if got, want := fmt.Sprint(body2[field]), fmt.Sprint(body1[field]); got != want {
				t.Errorf("query %d: sharded %s = %v, unsharded %v", i, field, got, want)
			}
		}
		// Simulated cost differs by design (max-of-shards + merge vs
		// serial; scaling is asserted by internal/shard's
		// TestResultsByteIdenticalAcrossTopologies) — only sanity-check
		// that the sharded path billed something.
		if secs, _ := body2["sim_seconds"].(float64); secs <= 0 {
			t.Errorf("query %d: sharded sim_seconds = %v, want > 0", i, secs)
		}
	}

	s := sharded.Stats()
	if s.Sharding == nil {
		t.Fatal("sharded gateway reports no Sharding snapshot")
	}
	if s.Sharding.Shards != 4 || s.Sharding.Mode != "hash" {
		t.Errorf("Sharding = %d shards mode %q, want 4/hash", s.Sharding.Shards, s.Sharding.Mode)
	}
	if s.Sharding.Queries < 4 {
		t.Errorf("cluster served %d queries, want >= 4", s.Sharding.Queries)
	}
}

// TestGatewayAutoscalerDryRun drives enough traffic through an
// autoscaling gateway with an unreachable goal to close several metric
// windows, and checks the dry-run contract: proposals are audited, the
// topology never changes.
func TestGatewayAutoscalerDryRun(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.Autoscale = true
	cfg.AutoscaleDryRun = true
	cfg.AutoscaleWindow = 8
	// Every completion misses a goal of "100% under a nanosecond", so
	// scale-out-goal fires on each window.
	cfg.AutoscaleGoal = "0.000000001:1.0"
	g, ts := newTestGateway(t, cfg)

	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 0)
	for i := 0; i < 16; i++ {
		if st, body, _ := postQuery(t, ts.URL, "alpha-key", int64(i), "NREF2J", sqlText); st != 200 {
			t.Fatalf("query %d: status %d body %v", i, st, body)
		}
	}

	// The worker evaluates windows asynchronously; wait for at least one.
	deadline := time.Now().Add(10 * time.Second)
	var sh *ShardSnapshot
	for {
		s := g.Stats()
		sh = s.Sharding
		if sh != nil && sh.AutoscaleWindows >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no autoscale window evaluated; sharding = %+v", sh)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sh.Autoscale || !sh.AutoscaleDryRun {
		t.Errorf("snapshot flags = %+v, want autoscale dry-run", sh)
	}
	if sh.AutoscaleActions["dry-run"] < 1 {
		t.Errorf("AutoscaleActions = %v, want at least one dry-run", sh.AutoscaleActions)
	}
	if sh.Shards != 2 {
		t.Errorf("dry-run mutated topology: %d shards, want 2", sh.Shards)
	}
	if sh.Reshards != 0 {
		t.Errorf("dry-run performed %d reshards, want 0", sh.Reshards)
	}
}

// TestGatewayAutoscalerApplies checks a live (non-dry-run) scale-out:
// the violating goal doubles the shard count, bounded by max_shards, and
// results keep matching the unsharded baseline afterwards.
func TestGatewayAutoscalerApplies(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.Autoscale = true
	cfg.AutoscaleWindow = 8
	cfg.MaxShards = 2
	cfg.AutoscaleGoal = "0.000000001:1.0"
	g, ts := newTestGateway(t, cfg)
	_, plainTS := newTestGateway(t, testConfig())

	sqlText := poolQuery(t, ts.URL, "alpha-key", "NREF2J", 1)
	_, want, _ := postQuery(t, plainTS.URL, "alpha-key", 0, "NREF2J", sqlText)
	for i := 0; i < 16; i++ {
		if st, _, _ := postQuery(t, ts.URL, "alpha-key", int64(i), "NREF2J", sqlText); st != 200 {
			t.Fatalf("query %d failed", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Sharding.Reshards == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("autoscaler never resharded; sharding = %+v", g.Stats().Sharding)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sh := g.Stats().Sharding
	if sh.Shards != 2 {
		t.Errorf("scaled to %d shards, want 2 (doubled from 1, capped by max)", sh.Shards)
	}
	if sh.AutoscaleActions["apply"] < 1 {
		t.Errorf("AutoscaleActions = %v, want at least one apply", sh.AutoscaleActions)
	}

	st, got, _ := postQuery(t, ts.URL, "alpha-key", 99, "NREF2J", sqlText)
	if st != 200 {
		t.Fatalf("post-reshard query failed: %d", st)
	}
	for _, field := range []string{"row_count", "rows"} {
		if fmt.Sprint(got[field]) != fmt.Sprint(want[field]) {
			t.Errorf("post-reshard %s = %v, want %v", field, got[field], want[field])
		}
	}
}
