package shard

import (
	"testing"

	"repro/internal/conf"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/val"
)

// placementsFor analyzes sqlText on coord and runs the placement planner
// under spec.
func placementsFor(t *testing.T, coord *engine.Engine, spec Spec, sqlText string) ([]placement, []exKey) {
	t.Helper()
	q, err := coord.AnalyzeSQL(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	return planPlacements(q, coord.Physical(), spec.normalized())
}

// TestPlanPlacements pins the placement planner's decisions per join
// shape. NREF native partition keys are the primary keys' first columns:
// taxonomy→nref_id (offset 0), organism→nref_id (offset 0); taxonomy's
// taxon_id is offset 1, organism's taxon_id offset 2.
func TestPlanPlacements(t *testing.T) {
	coord := testCoord(t)
	hash4 := Spec{Shards: 4}

	cases := []struct {
		name      string
		spec      Spec
		sql       string
		want      []placement
		exchanged []exKey
	}{
		{
			name: "single table is a native singleton",
			spec: hash4,
			sql:  `SELECT taxon_id, COUNT(*) FROM taxonomy GROUP BY taxon_id`,
			want: []placement{{placeNative, 0}},
		},
		{
			name: "self-join on the stored key is partition-wise",
			spec: hash4,
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2
			 WHERE t.nref_id = t2.nref_id GROUP BY t.taxon_id`,
			want: []placement{{placeNative, 0}, {placeNative, 0}},
		},
		{
			name: "cross-table join on both stored keys is partition-wise",
			spec: hash4,
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, organism o
			 WHERE t.nref_id = o.nref_id GROUP BY t.taxon_id`,
			want: []placement{{placeNative, 0}, {placeNative, 0}},
		},
		{
			name: "key-mismatched join exchanges both sides on the join column",
			spec: hash4,
			sql: `SELECT o.name, COUNT(*) FROM organism o, taxonomy t
			 WHERE o.taxon_id = t.taxon_id GROUP BY o.name`,
			want:      []placement{{placeExchange, 2}, {placeExchange, 1}},
			exchanged: []exKey{{"organism", 2}, {"taxonomy", 1}},
		},
		{
			name: "half-native join keeps the native side, exchanges the other",
			spec: Spec{Shards: 4, Keys: map[string]string{"organism": "taxon_id"}},
			sql: `SELECT o.name, COUNT(*) FROM organism o, taxonomy t
			 WHERE o.taxon_id = t.taxon_id GROUP BY o.name`,
			want:      []placement{{placeNative, 2}, {placeExchange, 1}},
			exchanged: []exKey{{"taxonomy", 1}},
		},
		{
			name: "redundant unaligned edge is a filter, not a conflict",
			spec: hash4,
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, organism o
			 WHERE t.nref_id = o.nref_id AND t.taxon_id = o.taxon_id GROUP BY t.taxon_id`,
			want: []placement{{placeNative, 0}, {placeNative, 0}},
		},
		{
			name: "largest component wins; the rest broadcasts",
			spec: hash4,
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2, organism o, organism o2
			 WHERE t.nref_id = t2.nref_id AND o.nref_id = o2.nref_id GROUP BY t.taxon_id`,
			want: []placement{{placeNative, 0}, {placeNative, 0}, {placeBroadcast, 0}, {placeBroadcast, 0}},
		},
		{
			name: "conflicting edge leaves the loser's component broadcast",
			spec: hash4,
			sql: `SELECT t.lineage, COUNT(*) FROM source s, taxonomy t, taxonomy t2
			 WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage GROUP BY t.lineage`,
			want: []placement{{placeNative, 0}, {placeNative, 0}, {placeBroadcast, 0}},
		},
		{
			name: "range mode keeps same-table components native",
			spec: Spec{Shards: 4, Mode: ModeRange},
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2
			 WHERE t.nref_id = t2.nref_id GROUP BY t.taxon_id`,
			want: []placement{{placeNative, 0}, {placeNative, 0}},
		},
		{
			name: "range mode exchanges cross-table components even on stored keys",
			spec: Spec{Shards: 4, Mode: ModeRange},
			sql: `SELECT t.taxon_id, COUNT(*) FROM taxonomy t, organism o
			 WHERE t.nref_id = o.nref_id GROUP BY t.taxon_id`,
			want:      []placement{{placeExchange, 0}, {placeExchange, 0}},
			exchanged: []exKey{{"taxonomy", 0}, {"organism", 0}},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, exchanged := placementsFor(t, coord, tc.spec, tc.sql)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d placements, want %d", len(got), len(tc.want))
			}
			for o := range tc.want {
				if tc.want[o].kind == placeBroadcast {
					// Broadcast carries no meaningful column.
					if got[o].kind != placeBroadcast {
						t.Errorf("ordinal %d: kind = %v, want broadcast", o, got[o].kind)
					}
					continue
				}
				if got[o] != tc.want[o] {
					t.Errorf("ordinal %d: placement = %+v, want %+v", o, got[o], tc.want[o])
				}
			}
			if len(exchanged) != len(tc.exchanged) {
				t.Fatalf("exchanged = %v, want %v", exchanged, tc.exchanged)
			}
			for i := range tc.exchanged {
				if exchanged[i] != tc.exchanged[i] {
					t.Errorf("exchanged[%d] = %v, want %v", i, exchanged[i], tc.exchanged[i])
				}
			}
		})
	}
}

// TestExchangeBuckets checks the repartitioning itself: every coordinator
// row lands in exactly the bucket hashShard routes it to, the buckets
// conserve rows, and the per-topology cache returns the same buckets on
// the second request.
func TestExchangeBuckets(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := cl.top.Load()
	coordPhys := coord.Physical()

	const col = 1 // taxonomy.taxon_id
	infos, err := top.exchange("taxonomy", col)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 4 {
		t.Fatalf("exchange returned %d buckets, want 4", len(infos))
	}
	var total int64
	for i, info := range infos {
		total += info.Stats.Rows
		info.Heap.Scan(nil, func(_ storage.RowID, r val.Row) bool {
			if s := hashShard(r[col], 4); s != i {
				t.Errorf("row with key %v in bucket %d, hashShard says %d", r[col], i, s)
				return false
			}
			return true
		})
	}
	want := coordPhys.Table("taxonomy").Stats.Rows
	if total != want {
		t.Errorf("buckets hold %d rows, coordinator has %d", total, want)
	}

	again, err := top.exchange("taxonomy", col)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != infos[0] {
		t.Error("second exchange call rebuilt the buckets instead of hitting the cache")
	}
}

// TestPartitionStatsSurface pins the what-if surface over partition
// statistics: PartitionPhysical exposes per-partition cardinalities that
// sum to the coordinator's, and the coordinator's own estimates — the
// recommendation input — do not move when the topology does.
func TestPartitionStatsSurface(t *testing.T) {
	coord := testCoord(t)
	q := clusterQueries[1]
	base, err := coord.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := New(coord, Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range coord.Schema.Tables() {
		var sum int64
		for i := 0; i < 4; i++ {
			phys, err := cl.PartitionPhysical(i)
			if err != nil {
				t.Fatal(err)
			}
			ti := phys.Table(tab.Name)
			if ti == nil {
				t.Fatalf("partition %d has no table %s", i, tab.Name)
			}
			sum += ti.Stats.Rows
		}
		if want := coord.Physical().Table(tab.Name).Stats.Rows; sum != want {
			t.Errorf("%s: partition stats sum to %d rows, coordinator has %d", tab.Name, sum, want)
		}
	}
	if _, err := cl.PartitionPhysical(4); err == nil {
		t.Error("PartitionPhysical(4) on a 4-shard topology succeeded, want error")
	}
	if _, err := cl.PartitionPhysical(-1); err == nil {
		t.Error("PartitionPhysical(-1) succeeded, want error")
	}

	// Estimates (and therefore recommendations) are topology-invariant:
	// they always read the coordinator's full data.
	if err := cl.Reshard(8); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seconds != base.Seconds {
		t.Errorf("coordinator estimate moved across Reshard: %v != %v", after.Seconds, base.Seconds)
	}

	// The 1-shard topology exposes the coordinator as partition 0.
	cl1, err := New(coord, Spec{Shards: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	phys0, err := cl1.PartitionPhysical(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := phys0.Table("taxonomy").Stats.Rows, coord.Physical().Table("taxonomy").Stats.Rows; got != want {
		t.Errorf("1-shard partition 0 has %d taxonomy rows, coordinator has %d", got, want)
	}
	if _, err := cl1.PartitionPhysical(1); err == nil {
		t.Error("PartitionPhysical(1) on a 1-shard topology succeeded, want error")
	}
}

// TestShardedTransitionBuildSeconds pins the sharded transition-cost
// accounting: views are global (coordinator-serial), index builds divide
// across partitions, so the cluster pays ViewSeconds plus the slowest
// partition — strictly cheaper than the unsharded build, and exactly the
// unsharded build at one shard.
func TestShardedTransitionBuildSeconds(t *testing.T) {
	target := conf.Configuration{Name: "mixed"}
	target.Views = append(target.Views, conf.ViewDef{
		Name:       "v_tax",
		SQL:        "SELECT nref_id, taxon_id, lineage FROM taxonomy",
		BaseTables: []string{"taxonomy"},
	})
	target.AddIndex(conf.IndexDef{Table: "v_tax", Columns: []string{"c0", "c1"}})
	target.AddIndex(conf.IndexDef{Table: "taxonomy", Columns: []string{"taxon_id"}})
	target.AddIndex(conf.IndexDef{Table: "organism", Columns: []string{"taxon_id"}})

	flat, err := testCoord(t).Transition(target)
	if err != nil {
		t.Fatal(err)
	}
	if flat.ViewSeconds <= 0 {
		t.Fatalf("unsharded ViewSeconds = %v, want > 0 (view in target)", flat.ViewSeconds)
	}
	if flat.BuildSeconds <= flat.ViewSeconds {
		t.Fatalf("unsharded BuildSeconds %v not above ViewSeconds %v", flat.BuildSeconds, flat.ViewSeconds)
	}

	cl, err := New(testCoord(t), Spec{Shards: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := cl.Transition(target)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.ViewSeconds != flat.ViewSeconds {
		t.Errorf("sharded ViewSeconds %v != unsharded %v (views are coordinator-only)", sharded.ViewSeconds, flat.ViewSeconds)
	}
	if sharded.BuildSeconds <= sharded.ViewSeconds {
		t.Errorf("sharded BuildSeconds %v not above ViewSeconds %v", sharded.BuildSeconds, sharded.ViewSeconds)
	}
	if sharded.BuildSeconds >= flat.BuildSeconds {
		t.Errorf("sharded BuildSeconds %v not below unsharded %v (index builds divide across partitions)", sharded.BuildSeconds, flat.BuildSeconds)
	}

	cl1, err := New(testCoord(t), Spec{Shards: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := cl1.Transition(target)
	if err != nil {
		t.Fatal(err)
	}
	if one.BuildSeconds != flat.BuildSeconds {
		t.Errorf("1-shard BuildSeconds %v != unsharded %v", one.BuildSeconds, flat.BuildSeconds)
	}
}
