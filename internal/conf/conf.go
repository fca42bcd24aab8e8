// Package conf defines physical database configurations: sets of indexes
// and materialized views. Configurations are the objects the paper's
// framework reasons about — the initial configuration P (primary-key
// indexes only), the reference configuration 1C (every indexable column
// gets a single-column index), and the recommended configurations R
// produced by the recommenders.
package conf

import (
	"fmt"
	"sort"
	"strings"
)

// IndexDef declares an index over a base table or a materialized view.
type IndexDef struct {
	// Table is the name of the base table or materialized view indexed.
	Table string
	// Columns are the key columns, in order. len(Columns) is the index
	// width reported in the paper's Tables 2 and 3.
	Columns []string
	// Unique marks primary-key indexes.
	Unique bool
	// Auto marks indexes created automatically for primary keys; these
	// belong to every configuration and are not charged to the budget.
	Auto bool
}

// Name returns a deterministic identifier for the index.
func (d IndexDef) Name() string {
	return "ix_" + d.Table + "_" + strings.Join(d.Columns, "_")
}

// Equal reports whether two definitions describe the same index.
func (d IndexDef) Equal(o IndexDef) bool {
	if !strings.EqualFold(d.Table, o.Table) || len(d.Columns) != len(o.Columns) {
		return false
	}
	for i := range d.Columns {
		if !strings.EqualFold(d.Columns[i], o.Columns[i]) {
			return false
		}
	}
	return true
}

func (d IndexDef) String() string {
	u := ""
	if d.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("%sINDEX %s ON %s(%s)", u, d.Name(), d.Table, strings.Join(d.Columns, ", "))
}

// ViewDef declares a materialized view by its defining SELECT.
type ViewDef struct {
	Name string
	// SQL is the defining query, in the subset parsed by internal/sql.
	// The engine materializes the view by executing it.
	SQL string
	// BaseTables are the base tables the view joins, recorded for
	// reporting (paper Table 3 groups views by their base-table joins).
	BaseTables []string
}

func (v ViewDef) String() string {
	return fmt.Sprintf("MATERIALIZED VIEW %s AS %s", v.Name, v.SQL)
}

// Configuration is a named set of indexes and materialized views.
type Configuration struct {
	Name    string
	Indexes []IndexDef
	Views   []ViewDef
}

// Clone returns a deep copy.
func (c Configuration) Clone() Configuration {
	out := Configuration{Name: c.Name}
	out.Indexes = make([]IndexDef, len(c.Indexes))
	for i, d := range c.Indexes {
		d.Columns = append([]string(nil), d.Columns...)
		out.Indexes[i] = d
	}
	out.Views = make([]ViewDef, len(c.Views))
	for i, v := range c.Views {
		v.BaseTables = append([]string(nil), v.BaseTables...)
		out.Views[i] = v
	}
	return out
}

// HasIndex reports whether the configuration already contains the index.
func (c Configuration) HasIndex(d IndexDef) bool {
	for _, e := range c.Indexes {
		if e.Equal(d) {
			return true
		}
	}
	return false
}

// AddIndex appends the index if not already present and reports whether
// it was added.
func (c *Configuration) AddIndex(d IndexDef) bool {
	if c.HasIndex(d) {
		return false
	}
	c.Indexes = append(c.Indexes, d)
	return true
}

// HasView reports whether a view with the given name exists.
func (c Configuration) HasView(name string) bool {
	for _, v := range c.Views {
		if strings.EqualFold(v.Name, name) {
			return true
		}
	}
	return false
}

// View returns the named view definition, or nil.
func (c Configuration) View(name string) *ViewDef {
	for i := range c.Views {
		if strings.EqualFold(c.Views[i].Name, name) {
			return &c.Views[i]
		}
	}
	return nil
}

// SameStructures reports whether two configurations hold the same
// indexes and views, whatever their names: a transition from one to the
// other builds and drops nothing.
func (c Configuration) SameStructures(o Configuration) bool {
	same := len(c.Indexes) == len(o.Indexes) && len(c.Views) == len(o.Views)
	for _, d := range c.Indexes {
		same = same && o.HasIndex(d)
	}
	for _, v := range c.Views {
		same = same && o.View(v.Name) != nil && o.View(v.Name).SQL == v.SQL
	}
	return same
}

// WidthCounts returns, per table, the number of indexes of each key width
// (1..maxWidth columns; wider indexes are counted in the last bucket).
// Auto (primary key) indexes are excluded: the paper's Tables 2 and 3
// report only recommended/added indexes.
func (c Configuration) WidthCounts(maxWidth int) map[string][]int {
	out := make(map[string][]int)
	for _, d := range c.Indexes {
		if d.Auto {
			continue
		}
		w := len(d.Columns)
		if w > maxWidth {
			w = maxWidth
		}
		row := out[d.Table]
		if row == nil {
			row = make([]int, maxWidth)
			out[d.Table] = row
		}
		row[w-1]++
	}
	return out
}

// SortedTables returns the table names appearing in WidthCounts, sorted.
func SortedTables(m map[string][]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
