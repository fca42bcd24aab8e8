package optimizer

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/sql"
)

// fixtureQueries are queries over the fixture's two tables that, between
// them and under the fuzz target's index subsets, reach every candidate
// kind but the view scan: sequential, index, covering and range scans,
// IN-driven probes, hash, index and merge joins, a cross join, and both
// root operators.
var fixtureQueries = []string{
	"SELECT a, c FROM big WHERE a = 7",
	"SELECT a, c FROM big WHERE a < 50",
	"SELECT a, c FROM big WHERE a < 100 AND b = 5",
	"SELECT b, COUNT(*) FROM big WHERE b = 5 GROUP BY b",
	"SELECT b, COUNT(DISTINCT c) FROM big GROUP BY b",
	`SELECT s.y, COUNT(*) FROM small s, big g WHERE s.x = g.b AND s.y = 3 GROUP BY s.y`,
	`SELECT g.a, s.y FROM big g, small s WHERE g.b = s.x AND g.c = 'e' AND s.y < 40`,
	`SELECT g.c, COUNT(*) FROM big g, small s
		WHERE g.b = s.x
		  AND g.b IN (SELECT b FROM big GROUP BY b HAVING COUNT(*) < 3)
		  AND s.x IN (SELECT x FROM small GROUP BY x HAVING COUNT(*) < 3)
		GROUP BY g.c`,
	`SELECT y, COUNT(*) FROM small
		WHERE x IN (SELECT b FROM big GROUP BY b HAVING COUNT(*) < 300) GROUP BY y`,
	"SELECT y, COUNT(*) FROM small s, big g GROUP BY y",
	"SELECT a, c FROM big WHERE a IN (SELECT x FROM small GROUP BY x HAVING COUNT(*) < 2)",
}

func analyze(t testing.TB, f *fixture, text string) *sql.Query {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(f.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// planObjects counts the heap objects a plan of a projection over an index
// scan is made of: the plan, its layout, and each node with every slice
// and pointer it holds.
func planObjects(t *testing.T, p *plan.Plan) int {
	t.Helper()
	some := func(ok bool) int {
		if ok {
			return 1
		}
		return 0
	}
	pr, ok := p.Root.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T", p.Root)
	}
	scan, ok := pr.Input.(*plan.IndexScan)
	if !ok {
		t.Fatalf("input = %T", pr.Input)
	}
	return 2 + some(len(p.InSets) > 0) +
		1 + some(len(pr.Offsets) > 0) +
		1 + some(len(scan.EqVals) > 0) + some(scan.Range != nil) + some(len(scan.Filters) > 0) + some(len(scan.Ins) > 0)
}

// TestSupersededWinnerAllocatesNothing: an index scan that beats the
// sequential scan and is then beaten by a later index costs Optimize no
// allocation; Optimize allocates the plan it returns and nothing else, and
// Estimate allocates nothing.
func TestSupersededWinnerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	first := conf.IndexDef{Table: "big", Columns: []string{"a"}}
	f := newFixture(t, first)
	q := analyze(t, f, "SELECT a, c FROM big WHERE a < 100 AND b = 5")
	p, err := Optimize(f.phys, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scan, ok := p.Root.(*plan.Project).Input.(*plan.IndexScan); !ok || scan.Index.Def.Name() != first.Name() {
		t.Fatalf("%s does not beat the sequential scan:\n%s", first.Name(), p.Explain())
	}

	later := conf.IndexDef{Table: "big", Columns: []string{"b", "a"}}
	f = newFixture(t, first, later)
	if first.Name() > later.Name() {
		t.Fatalf("%s is priced before %s", later.Name(), first.Name())
	}
	p, err = Optimize(f.phys, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scan := p.Root.(*plan.Project).Input.(*plan.IndexScan); scan.Index.Def.Name() != later.Name() {
		t.Fatalf("%s does not win:\n%s", later.Name(), p.Explain())
	}
	want := planObjects(t, p)
	n := testing.AllocsPerRun(20, func() {
		if _, err := Optimize(f.phys, q, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Optimize allocates %v times for a plan of %d objects", n, want)
	if n > float64(want) {
		t.Errorf("Optimize allocates %v times for a plan of %d objects", n, want)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Estimate(f.phys, q, Options{}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Estimate allocates %v times", n)
	}
}

// TestPooledScratchDoesNotAlias keeps a plan, then runs a thousand
// searches over other queries on four goroutines: the kept plan still
// equals its twin from never-pooled scratch, so nothing it holds is
// scratch a later search reuses.
func TestPooledScratchDoesNotAlias(t *testing.T) {
	f := newFixture(t,
		conf.IndexDef{Table: "big", Columns: []string{"b"}},
		conf.IndexDef{Table: "small", Columns: []string{"x"}},
		conf.IndexDef{Table: "big", Columns: []string{"b", "a"}})
	qs := make([]*sql.Query, len(fixtureQueries))
	for i, text := range fixtureQueries {
		qs[i] = analyze(t, f, text)
	}
	for _, kept := range []int{6, 7} { // an index join with filters; a merge join under IN sets
		p, err := Optimize(f.phys, qs[kept], Options{})
		if err != nil {
			t.Fatal(err)
		}
		explain := p.Explain()
		twin, err := new(search).optimize(f.phys, qs[kept], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, twin) {
			t.Fatalf("query %d: the pooled plan differs from fresh scratch's:\n%s\n%s", kept, explain, twin.Explain())
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 250; i++ {
					j := (g + i) % len(qs)
					if j == kept {
						j = (j + 1) % len(qs)
					}
					q := qs[j]
					var err error
					if i%2 == 0 {
						_, err = Optimize(f.phys, q, Options{})
					} else {
						_, err = Estimate(f.phys, q, Options{})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := p.Explain(); got != explain {
			t.Errorf("query %d: the kept plan changed:\n%s\nwas:\n%s", kept, got, explain)
		}
		if !reflect.DeepEqual(p, twin) {
			t.Errorf("query %d: a slice of the kept plan changed", kept)
		}
	}
}

// FuzzEstimateMatchesOptimize draws a configuration — a subset of built
// and hypothetical indexes over the fixture's tables — a fixture query
// and the profile options. Estimate must equal the estimate of the plan
// Optimize returns, and that plan must equal the one a search on fresh,
// never-pooled scratch builds.
func FuzzEstimateMatchesOptimize(f *testing.F) {
	defs := []conf.IndexDef{
		{Table: "big", Columns: []string{"a"}},
		{Table: "big", Columns: []string{"b"}},
		{Table: "big", Columns: []string{"c"}},
		{Table: "big", Columns: []string{"b", "c"}},
		{Table: "big", Columns: []string{"b", "a"}},
		{Table: "big", Columns: []string{"c", "a"}},
		{Table: "small", Columns: []string{"x"}},
		{Table: "small", Columns: []string{"y"}},
		{Table: "small", Columns: []string{"x", "y"}},
		{Table: "small", Columns: []string{"y", "x"}},
	}
	fx := newFixture(f, defs...)
	// pool[2i] is defs[i] built, pool[2i+1] the same index hypothetical.
	var pool []*plan.IndexInfo
	for _, key := range []string{"big", "small"} {
		for _, ix := range fx.phys.Indexes[key] {
			hypo := *ix
			hypo.Tree, hypo.Hypothetical = nil, true
			pool = append(pool, ix, &hypo)
		}
	}
	qs := make([]*sql.Query, len(fixtureQueries))
	for i, text := range fixtureQueries {
		qs[i] = analyze(f, fx, text)
	}
	f.Add(uint32(0), uint8(0), uint8(0))
	f.Add(uint32(0x55555), uint8(5), uint8(0))
	f.Add(uint32(0xaaaaa), uint8(7), uint8(1))
	f.Add(uint32(0xfffff), uint8(8), uint8(6))
	f.Add(uint32(0x41041), uint8(6), uint8(16))
	f.Fuzz(func(t *testing.T, subset uint32, query, flags uint8) {
		phys := *fx.phys
		phys.Indexes = make(map[string][]*plan.IndexInfo)
		for i, ix := range pool {
			if subset&(1<<uint(i)) != 0 {
				key := strings.ToLower(ix.Def.Table)
				phys.Indexes[key] = append(phys.Indexes[key], ix)
			}
		}
		for _, list := range phys.Indexes {
			plan.SortIndexes(list)
		}
		opts := Options{
			HypoIdeal:       flags&1 != 0,
			HypoNoMergeJoin: flags&2 != 0,
			NoIndexOnly:     flags&4 != 0,
			NoViews:         flags&8 != 0,
		}
		if flags&16 != 0 {
			opts.HypoRowPenalty = 3
		}
		q := qs[int(query)%len(qs)]
		p, err := Optimize(&phys, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(&phys, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if est != p.Est {
			t.Errorf("Estimate %+v, Optimize's plan %+v", est, p.Est)
		}
		fresh, err := new(search).optimize(&phys, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, fresh) {
			t.Errorf("pooled scratch planned\n%s\nfresh scratch\n%s", p.Explain(), fresh.Explain())
		}
	})
}
