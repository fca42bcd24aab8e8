package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/gateway"
)

// The data every workload serves: NREF (plus TPC-H for advise) at this
// scale and seed. -seed never reaches the data; it drives only the
// request schedule.
const (
	dataScale  = 0.0002
	dataSeed   = 42
	poolSize   = 30 // queries per family pool on the serving workloads
	advisePool = 50 // queries per case pool on advise

	// refSeconds is the -seconds value the frozen sizes below were
	// measured at on the 2-CPU reference; another -seconds scales every
	// phase's cycle count linearly (never below one cycle), so the mix
	// and the rates stay what they are.
	refSeconds = 20

	warmupRequests = 20
	setupRepeats   = 13 // set-ups per run; setup_s is their first quartile
	defaultSeed    = 1
	smokeDivisor   = 20
)

// workload is one named input set. A serving workload sends HTTP
// queries through a gateway in two phases (closed, then open); advise
// has no gateway and is closed-loop only.
type workload struct {
	name string
	why  string

	// families[i] is granted to tenant i ("alpha", "beta"); a draw picks
	// a family with equal probability, then a pool entry.
	families []string
	// shards > 1 serves through a shard cluster and mixes the seven
	// shardQueries 50/50 with the pool.
	shards int
	// fixedConfig marks workloads whose configuration never changes, so
	// every reply's sim_seconds must equal the oracle's.
	fixedConfig bool

	// Sizes at refSeconds, in whole cycles: a cycle holds every query of
	// the mix equally often within its class, so seeds change only the
	// order and the work is identical on both sides of any comparison.
	closedCycles int
	openCycles   int
	rate         float64 // open-phase arrivals per second
	// retuneEvery > 0 reconfigures beside the reads each time a schedule
	// position that is a multiple of it is issued.
	retuneEvery int

	// advise only: passes over the five cases at refSeconds.
	passes int
}

func (w *workload) serving() bool { return len(w.families) > 0 }

// tenantNames[i] is the tenant granted families[i]; its API key is the
// name plus "-key".
var tenantNames = []string{"alpha", "beta"}

var workloads = []*workload{
	{
		name:         "serve-2j",
		why:          "light NREF2J queries: the only load where gateway, sql, optimizer and HTTP are a visible share of a request",
		families:     []string{"NREF2J"},
		fixedConfig:  true,
		closedCycles: 160, openCycles: 20, rate: 200,
	},
	{
		name:         "serve-mix",
		why:          "NREF2J and NREF3J drawn 50/50: executor-bound, so exec, val and GC changes move it and front-end changes must not",
		families:     []string{"NREF2J", "NREF3J"},
		fixedConfig:  true,
		closedCycles: 6, openCycles: 1, rate: 12,
	},
	{
		name:         "serve-retune",
		why:          "serve-mix's schedule with recommend+Transition beside the reads: the engine as a writer while it is being read",
		families:     []string{"NREF2J", "NREF3J"},
		closedCycles: 6, openCycles: 1, rate: 12,
		retuneEvery: 50,
	},
	{
		name:         "serve-shard",
		why:          "NREF2J plus the seven shardbench queries over 2 shards: fan-out, exchange and MergePartials work only here",
		families:     []string{"NREF2J"},
		shards:       2,
		fixedConfig:  true,
		closedCycles: 12, openCycles: 1, rate: 100,
	},
	{
		name:   "advise",
		why:    "recommend cold, recommend warm, Transition(R), Transition(P) over five cases: the control path, executor almost idle",
		passes: 8,
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mustWorkload is workloadNamed for the names this package itself
// spells out; a miss is a bug in this package.
func mustWorkload(name string) *workload {
	w, err := workloadNamed(name)
	if err != nil {
		panic(err)
	}
	return w
}

// e2eMetric is one end-to-end metric with its regression bound: the
// share of the parent's median by which it may worsen. BENCHMARK.json
// repeats this table; a unit test keeps the two equal.
type e2eMetric struct {
	name   string
	unit   string
	better string
	bound  float64
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"tail5_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
}

// sizes are a workload's phase lengths for one run: cycles of the mix
// for the two serving phases, passes over the cases for advise.
type sizes struct {
	closed, open float64
	passes       int
	warmup       int // untimed requests before the closed phase
	setUps       int // timed set-ups; setup_s is their first quartile
	retuneEvery  int // 0: no reconfiguration beside the reads
}

// sizesFor scales the frozen sizes to -seconds; a phase never drops
// below one cycle. The smoke run takes one-twentieth of the frozen
// sizes instead, fractions of a cycle included, and sets up once.
func (w *workload) sizesFor(seconds int, smoke bool) sizes {
	if smoke {
		return sizes{
			closed: float64(w.closedCycles) / smokeDivisor, open: float64(w.openCycles) / smokeDivisor,
			passes: max(1, w.passes/smokeDivisor), warmup: 1, setUps: 1,
			retuneEvery: w.retuneEvery / 5, // so that the few positions left still fire one
		}
	}
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, int(math.Round(float64(n)*float64(seconds)/refSeconds)))
	}
	return sizes{
		closed: float64(scale(w.closedCycles)), open: float64(scale(w.openCycles)),
		passes: scale(w.passes), warmup: warmupRequests, setUps: setupRepeats,
		retuneEvery: w.retuneEvery,
	}
}

// requests is how many schedule positions that many cycles are.
func requests(cycles float64, cycle []int) int {
	return max(1, int(math.Ceil(cycles*float64(len(cycle)))))
}

// clients is the number of client goroutines and keep-alive
// connections: one per CPU, so the load is sized to the box.
func clients() int { return runtime.NumCPU() }

// openSenders is how many goroutines issue the open phase. More than
// clients(), so that a slow reply does not make the generator itself
// the queue: with only one sender per CPU, two slow queries in flight
// stop all sending, and the measured tail is the generator's.
func openSenders() int { return 4 * clients() }

// gatewayConfig is the tenant directory the workload serves under:
// tuning off, one tenant per family, everything else the gateway's
// defaults (what gatewayd users get).
func (w *workload) gatewayConfig() (gateway.Config, error) {
	cfg := gateway.Config{System: "B", Scale: dataScale, Seed: dataSeed, Pool: poolSize}
	for i, f := range w.families {
		name := tenantNames[i]
		cfg.Tenants = append(cfg.Tenants, gateway.TenantConfig{Name: name, APIKey: name + "-key", Families: []string{f}})
	}
	if w.shards > 1 {
		cfg.Shards, cfg.ShardPool = w.shards, 2
	}
	return cfg, cfg.Normalize()
}

// query is one entry of a workload's mix: the SQL, the family label it
// is sent under and the key of the tenant granted that family.
type query struct {
	family string
	apiKey string
	sql    string
}

// mix assembles the workload's queries and one cycle over them. The
// cycle repeats entries so that every class (a family pool, or the
// shard queries) holds the same number of draws and every query within
// a class the same number: 50/50 by construction, not by chance.
func (w *workload) mix(pools map[string][]string) (queries []query, cycle []int) {
	var classes [][]int
	for i, f := range w.families {
		key := tenantNames[i] + "-key"
		var class []int
		for _, s := range pools[f] {
			class = append(class, len(queries))
			queries = append(queries, query{family: f, apiKey: key, sql: s})
		}
		classes = append(classes, class)
	}
	if w.shards > 1 {
		var class []int
		for _, s := range shardQueries {
			class = append(class, len(queries))
			queries = append(queries, query{family: w.families[0], apiKey: tenantNames[0] + "-key", sql: s})
		}
		classes = append(classes, class)
	}
	draws := 1 // least common multiple of the class sizes
	for _, c := range classes {
		draws = draws / gcd(draws, len(c)) * len(c)
	}
	for _, c := range classes {
		for r := 0; r < draws/len(c); r++ {
			cycle = append(cycle, c...)
		}
	}
	return queries, cycle
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// makeSchedule returns cycles seeded permutations of the cycle, one
// after another: which entry is sent at each position.
func makeSchedule(seed int64, cycle []int, cycles int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, len(cycle)*cycles)
	for c := 0; c < cycles; c++ {
		perm := append([]int(nil), cycle...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		out = append(out, perm...)
	}
	return out
}

// warmupSchedule draws the untimed warm-up requests from their own
// stream, so the timed schedule does not depend on the warm-up length.
func warmupSchedule(seed int64, cycle []int, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int, n)
	for i := range out {
		out[i] = cycle[rng.Intn(len(cycle))]
	}
	return out
}

// shardQueries are cmd/shardbench's seven queries, copied as data:
// partition-wise joins on the native keys, a key-mismatched join that
// forces a row exchange, an IN-subquery with a global HAVING set,
// single-table aggregates and a self-join on the shared key.
var shardQueries = []string{
	`SELECT t.lineage, COUNT(DISTINCT t2.nref_id) FROM source s, taxonomy t, taxonomy t2 WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage AND s.p_name = 'Simian Virus 40' GROUP BY t.lineage`,
	`SELECT t.taxon_id, COUNT(*) FROM taxonomy t, organism o WHERE t.nref_id = o.nref_id AND t.nref_id = 'NF0000041' GROUP BY t.taxon_id`,
	`SELECT taxon_id, COUNT(*) FROM taxonomy GROUP BY taxon_id`,
	`SELECT lineage, COUNT(DISTINCT nref_id) FROM taxonomy GROUP BY lineage`,
	`SELECT o.name, COUNT(*) FROM organism o, taxonomy t WHERE o.taxon_id = t.taxon_id AND o.ordinal = 7 GROUP BY o.name`,
	`SELECT r.taxon_id, COUNT(*) FROM taxonomy r, organism s WHERE r.nref_id = s.nref_id AND r.nref_id IN (SELECT nref_id FROM taxonomy GROUP BY nref_id HAVING COUNT(*) < 4) GROUP BY r.taxon_id`,
	`SELECT t.taxon_id, COUNT(*) FROM taxonomy t, taxonomy t2 WHERE t.nref_id = t2.nref_id AND t.nref_id = 'NF0000041' GROUP BY t.taxon_id`,
}
