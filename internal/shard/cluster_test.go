package shard

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/exec"
)

// testCoord builds a small NREF coordinator with the 1C configuration
// applied, so partitions carry real single-column B+-trees.
func testCoord(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.NREF(), 0.0001, engine.SystemB())
	if err := datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: 0.0001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.OneColumnConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// clusterQueries exercise single tables, selections, self-joins
// (partition-wise on the shared key), key-mismatched joins (the
// row-exchange path), 2- and 3-way joins, IN subqueries and every
// aggregate kind.
var clusterQueries = []string{
	`SELECT t.lineage, COUNT(DISTINCT t2.nref_id)
	 FROM source s, taxonomy t, taxonomy t2
	 WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage
	   AND s.p_name = 'Simian Virus 40'
	 GROUP BY t.lineage`,
	`SELECT t.taxon_id, COUNT(*)
	 FROM taxonomy t, organism o
	 WHERE t.nref_id = o.nref_id AND t.nref_id = 'NF0000041'
	 GROUP BY t.taxon_id`,
	`SELECT taxon_id, COUNT(*) FROM taxonomy GROUP BY taxon_id`,
	`SELECT p_name, length FROM protein WHERE length < 100`,
	`SELECT o.name, COUNT(*) FROM organism o, taxonomy t
	 WHERE o.taxon_id = t.taxon_id AND o.ordinal = 7 GROUP BY o.name`,
	`SELECT r.taxon_id, COUNT(*) FROM taxonomy r, organism s
	 WHERE r.nref_id = s.nref_id
	   AND r.nref_id IN (SELECT nref_id FROM taxonomy GROUP BY nref_id HAVING COUNT(*) < 4)
	   AND s.nref_id IN (SELECT nref_id FROM organism GROUP BY nref_id HAVING COUNT(*) < 4)
	 GROUP BY r.taxon_id`,
	`SELECT source, MIN(taxon_id), MAX(taxon_id), SUM(p_id), AVG(p_id), COUNT(p_id)
	 FROM source GROUP BY source`,
	// Purely self-joined FROM list: both sides read the same stored
	// partition (partition-wise join on the shared key) and must still be
	// byte-identical at every topology.
	`SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2
	 WHERE t.nref_id = t2.nref_id GROUP BY t.taxon_id`,
}

// render canonicalizes a result for byte comparison.
func render(res *exec.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, ","))
	sb.WriteByte('\n')
	for _, r := range res.Rows {
		sb.WriteString(r.Key())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestResultsByteIdenticalAcrossTopologies is the core determinism
// claim: every query's result is byte-identical at shard counts
// {1,2,4,8} × pool widths {1,4,16}, in both partitioning modes, and a
// fixed topology's simulated cost does not depend on the pool width.
// It also holds the scaling contract: no query falls back to the
// coordinator at any topology, and in hash mode the workload's summed
// simulated seconds never rise with the shard count (range mode is
// logged only: its uneven 2-shard split costs more than 1 shard).
// -v prints the curve EXPERIMENTS.md quotes.
func TestResultsByteIdenticalAcrossTopologies(t *testing.T) {
	coord := testCoord(t)
	base, err := New(coord, Spec{Shards: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(clusterQueries))
	baseSim := 0.0
	for i, q := range clusterQueries {
		res, m, err := base.Run(q, 0)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		want[i] = render(res)
		baseSim += m.Seconds
	}
	// scaling logs one row of the curve and checks the two contracts.
	scaling := func(mode Mode, cl *Cluster, sim, prevSim float64) {
		st := cl.Stats()
		t.Logf("%s/%d shards: %.2f simulated s per pass of %d queries; %d of %d runs exchanged rows, %d fell back",
			mode, cl.Shards(), sim, len(clusterQueries), st.Exchanges, st.Queries, st.Fallbacks)
		if st.Fallbacks != 0 {
			t.Errorf("%s/%d: %d coordinator-serial fallbacks, want 0", mode, cl.Shards(), st.Fallbacks)
		}
		if mode == ModeHash && sim > prevSim {
			t.Errorf("hash/%d: simulated seconds rose to %.2f from %.2f at the previous shard count", cl.Shards(), sim, prevSim)
		}
	}
	scaling(ModeHash, base, baseSim, baseSim)

	for _, mode := range []Mode{ModeHash, ModeRange} {
		prevSim := baseSim
		for _, n := range []int{2, 4, 8} {
			cl, err := New(coord, Spec{Shards: n, Mode: mode}, 1)
			if err != nil {
				t.Fatalf("%s/%d: %v", mode, n, err)
			}
			secs := make([]float64, len(clusterQueries))
			for _, pool := range []int{1, 4, 16} {
				cl.SetPool(pool)
				for i, q := range clusterQueries {
					res, m, err := cl.Run(q, 0)
					if err != nil {
						t.Fatalf("%s/%d/pool%d query %d: %v", mode, n, pool, i, err)
					}
					if got := render(res); got != want[i] {
						t.Errorf("%s/%d/pool%d query %d: result differs from 1-shard baseline\ngot:\n%s\nwant:\n%s",
							mode, n, pool, i, got, want[i])
					}
					if pool == 1 {
						secs[i] = m.Seconds
					} else if m.Seconds != secs[i] {
						t.Errorf("%s/%d query %d: seconds %v at pool %d != %v at pool 1 (simulated cost must not depend on fan-out)",
							mode, n, i, m.Seconds, pool, secs[i])
					}
				}
			}
			sim := 0.0
			for _, s := range secs {
				sim += s
			}
			scaling(mode, cl, sim, prevSim)
			prevSim = sim
		}
	}
}

// TestFallbackPaths pins the one remaining coordinator-serial fallback
// — plans that read a materialized view — and that self-joins, formerly
// a fallback, now run partition-parallel without one.
func TestFallbackPaths(t *testing.T) {
	// System C is the profile that plans over materialized views. The
	// configuration holds ONLY the view and its index, so the view is the
	// sole access structure and the optimizer must pick it for the
	// selective lookup.
	coord := engine.New(catalog.NREF(), 0.0001, engine.SystemC())
	if err := datagen.GenerateNREF(coord, datagen.NREFOptions{ScaleFactor: 0.0001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	coord.CollectStats()
	cfg := conf.Configuration{Name: "view-only"}
	cfg.Views = append(cfg.Views, conf.ViewDef{
		Name:       "v_tax",
		SQL:        "SELECT nref_id, taxon_id, lineage FROM taxonomy",
		BaseTables: []string{"taxonomy"},
	})
	cfg.AddIndex(conf.IndexDef{Table: "v_tax", Columns: []string{"c0", "c1"}})
	if _, err := coord.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	cl, err := New(coord, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}

	viewQ := `SELECT taxon_id, COUNT(*) FROM taxonomy WHERE nref_id = 'NF0000041' GROUP BY taxon_id`
	wantRes, wantM, err := coord.Run(viewQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, gotM, err := cl.Run(viewQ, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(gotRes) != render(wantRes) {
		t.Errorf("fallback result differs from engine for %q", viewQ)
	}
	if gotM.Seconds != wantM.Seconds {
		t.Errorf("fallback seconds %v != engine seconds %v for %q", gotM.Seconds, wantM.Seconds, viewQ)
	}
	if st := cl.Stats(); st.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", st.Fallbacks)
	}

	// Self-joins run partition-wise now (both ordinals read the same
	// stored partition on the shared key): no fallback, identical bytes.
	coordB := testCoord(t)
	clB, err := New(coordB, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	selfJoin := `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2
	 WHERE t.nref_id = t2.nref_id GROUP BY t.taxon_id`
	wantRes2, _, err := coordB.Run(selfJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	gotRes2, _, err := clB.Run(selfJoin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(gotRes2) != render(wantRes2) {
		t.Errorf("self-join result differs from engine for %q", selfJoin)
	}
	if st := clB.Stats(); st.Fallbacks != 0 {
		t.Errorf("self-join Fallbacks = %d, want 0 (partition-wise path)", st.Fallbacks)
	}
}

// TestTransitionPropagates checks that a configuration change reaches
// the partitions (base-table structures only) and results stay identical
// afterwards.
func TestTransitionPropagates(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := clusterQueries[1]
	before, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	target := engine.PConfiguration(coord)
	if _, err := cl.Transition(target); err != nil {
		t.Fatal(err)
	}
	for i, sh := range cl.top.Load().shards {
		if got := len(sh.Current().Indexes); got != len(baseOnly(coord.Schema, target).Indexes) {
			t.Errorf("shard %d has %d indexes after transition", i, got)
		}
	}
	after, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(before) != render(after) {
		t.Error("result changed across Transition (indexes must not affect results)")
	}
}

// TestReshardLive checks resharding swaps topologies without changing
// results, and rejects invalid counts.
func TestReshardLive(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := clusterQueries[0]
	before, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Reshard(0); err == nil {
		t.Error("Reshard(0) succeeded, want error")
	}
	if err := cl.Reshard(8); err != nil {
		t.Fatal(err)
	}
	if got := cl.Shards(); got != 8 {
		t.Fatalf("Shards() = %d after Reshard(8)", got)
	}
	after, _, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if render(before) != render(after) {
		t.Error("result changed across Reshard")
	}
	if st := cl.Stats(); st.Reshards != 1 {
		t.Errorf("Reshards = %d, want 1", st.Reshards)
	}
}

// TestAggregateWithoutGroupByOverNoRows: an aggregate with no GROUP BY
// over a join that matches nothing returns its one row — COUNT 0, the
// other aggregates NULL — on the coordinator and merged from two shards.
func TestAggregateWithoutGroupByOverNoRows(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM protein p, source s WHERE p.nref_id = s.nref_id AND p.length < 0`, "[0]"},
		{`SELECT COUNT(*), SUM(s.p_id), MIN(s.p_id), MAX(p.length), AVG(p.length)
		  FROM protein p, source s WHERE p.nref_id = s.nref_id AND p.length < 0`, "[0 NULL NULL NULL NULL]"},
	} {
		for name, run := range map[string]func(string, float64) (*exec.Result, engine.Measure, error){
			"coordinator": coord.Run, "2 shards": cl.Run,
		} {
			res, _, err := run(c.sql, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != c.want {
				t.Errorf("%s: %s returned %v, want [%s]", name, c.sql, res.Rows, c.want)
			}
		}
	}
	if st := cl.Stats(); st.Fallbacks != 0 {
		t.Errorf("%d coordinator fallbacks, want the shards to answer", st.Fallbacks)
	}
}
