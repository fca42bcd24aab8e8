package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/val"
)

// PConfiguration is the paper's initial configuration P: only the indexes
// automatically created for primary keys (§3.2).
func PConfiguration(e *Engine) conf.Configuration {
	c := conf.Configuration{Name: "P"}
	for _, t := range e.Schema.Tables() {
		if len(t.PrimaryKey) == 0 {
			continue
		}
		c.AddIndex(conf.IndexDef{
			Table:   t.Name,
			Columns: append([]string(nil), t.PrimaryKey...),
			Unique:  true,
			Auto:    true,
		})
	}
	return c
}

// OneColumnConfiguration is the paper's reference configuration 1C: P plus
// one single-column index on every indexable column (§3.2.3).
func OneColumnConfiguration(e *Engine) conf.Configuration {
	c := PConfiguration(e)
	c.Name = "1C"
	for _, t := range e.Schema.Tables() {
		for _, col := range t.IndexableColumns() {
			c.AddIndex(conf.IndexDef{Table: t.Name, Columns: []string{col}})
		}
	}
	return c
}

// SystemA simulates the paper's System A: a per-query recommender with no
// materialized views; its what-if estimator is moderately conservative.
func SystemA() Profile {
	return Profile{
		Name:     "A",
		Opts:     optimizer.Options{HypoRowPenalty: 4, NoViews: true},
		MemBytes: 256 << 20,
	}
}

// SystemB simulates the paper's System B: a workload-total-cost
// recommender with no views and a strongly conservative what-if estimator
// (this is the system whose estimate curves appear in Figure 10).
func SystemB() Profile {
	return Profile{
		Name:     "B",
		Opts:     optimizer.Options{HypoRowPenalty: 10, NoViews: true, HypoNoMergeJoin: true},
		MemBytes: 256 << 20,
	}
}

// SystemC simulates the paper's System C: it recommends (and uses)
// materialized views and indexes on them, with moderate conservatism.
func SystemC() Profile {
	return Profile{
		Name:     "C",
		Opts:     optimizer.Options{HypoRowPenalty: 4},
		MemBytes: 256 << 20,
	}
}

// InsertRows inserts rows into a base table under the current
// configuration, billing heap writes and the maintenance of every index on
// the table (the paper's §4.4 insertion experiment). Each index entry
// insertion costs one random leaf-page touch plus the descent comparisons.
//
// Insert costs are per-actual-row and therefore unscaled: unlike query
// work (where a scaled database stands in for the full one), the §4.4
// experiment inserts a literal number of tuples. Views are not
// maintained, matching the experiment (no NREF recommendation contains
// views, Table 2).
func (e *Engine) InsertRows(table string, rows []val.Row) (Measure, error) {
	var seconds float64
	var meter cost.Meter
	err := e.mutate(func(next *snapshot) error {
		h, err := next.growHeap(table)
		if err != nil {
			return err
		}
		name := strings.ToLower(table)
		ixs := next.phys.Indexes[name]
		for _, r := range rows {
			seconds += e.insertRowCost(h, len(ixs))
			if _, err := h.Insert(&meter, r); err != nil {
				return err
			}
		}
		// Readers of the published snapshot still walk the old trees, so
		// each index gets a new one over the grown heap; its size model
		// stays as built.
		grown := make([]*plan.IndexInfo, len(ixs))
		for i, ix := range ixs {
			nix := *ix
			nix.Tree, _ = fillTree(h, ix.Cols)
			grown[i] = &nix
		}
		next.phys.Indexes[name] = grown
		return nil
	})
	if err != nil {
		return Measure{}, err
	}
	return Measure{
		SQL:     fmt.Sprintf("INSERT INTO %s (%d rows)", table, len(rows)),
		Seconds: seconds,
		Meter:   meter,
	}, nil
}

// insertRowCost prices one row insertion, unscaled: per-row CPU, the
// amortized heap page write, and one random leaf touch plus descent
// comparisons per index.
func (e *Engine) insertRowCost(h *storage.Heap, numIndexes int) float64 {
	perRow := e.Model.RowSec + e.Model.WritePageSec/float64(h.RowsPerPage())
	full := float64(h.NumRows())/e.ScaleFactor + 2
	perRow += float64(numIndexes) * (e.Model.RandPageSec + math.Log2(full)*e.Model.CPUOpSec)
	return perRow
}

// InsertCostPerRow returns the simulated cost of one row insertion under
// the current configuration without mutating state.
func (e *Engine) InsertCostPerRow(table string) float64 {
	phys := e.cur.Load().phys
	ti := phys.Table(table)
	if ti == nil {
		return 0
	}
	return e.insertRowCost(ti.Heap, len(phys.IndexesOn(table)))
}
