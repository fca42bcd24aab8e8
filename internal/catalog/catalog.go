// Package catalog defines relational schemas: tables, typed columns,
// primary/foreign keys, and value domains.
//
// Domains are the benchmark's device (paper §3.2.2) for generating
// meaningful queries: two columns may be joined by a query-family template
// only if they belong to the same domain (e.g., every taxon identifier
// column in NREF shares the "taxon" domain).
package catalog

import (
	"fmt"
	"strings"
)

// Type is the declared SQL type of a column.
type Type uint8

// The supported column types.
const (
	TypeInt Type = iota
	TypeFloat
	TypeString
)

func (t Type) String() string {
	switch t {
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type
	// Domain groups columns that can be meaningfully joined. Empty means
	// the column joins with nothing outside its own key relationships.
	Domain string
	// Indexable reports whether the benchmark allows an index on this
	// column (the paper excludes long free-text columns such as protein
	// sequences from the 1C configuration and from query templates).
	Indexable bool
	// AvgWidth is the average stored width in bytes, used by the size
	// model for strings (ints and floats are always 8).
	AvgWidth int
}

// Width returns the modeled byte width of the column's values: AvgWidth
// for a string (16 when it is unset), 8 for an int or a float.
//
// Arithmetic on a value receiver, shared by the size estimators.
func (c Column) Width() int {
	if c.Type == TypeString {
		if c.AvgWidth > 0 {
			return c.AvgWidth
		}
		return 16
	}
	return 8
}

// ForeignKey declares that Columns of the owning table reference
// RefColumns of RefTable.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Table describes a base relation.
type Table struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string // column names; empty means no primary key
	ForeignKeys []ForeignKey

	byName map[string]int
}

// NewTable builds a table and validates its column references.
func NewTable(name string, cols []Column, pk []string, fks ...ForeignKey) (*Table, error) {
	t := &Table{Name: name, Columns: cols, PrimaryKey: pk, ForeignKeys: fks,
		byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.byName[lc]; dup {
			return nil, fmt.Errorf("table %s: duplicate column %s", name, c.Name)
		}
		t.byName[lc] = i
	}
	for _, p := range pk {
		if _, ok := t.byName[strings.ToLower(p)]; !ok {
			return nil, fmt.Errorf("table %s: primary key column %s not found", name, p)
		}
	}
	for _, fk := range fks {
		for _, c := range fk.Columns {
			if _, ok := t.byName[strings.ToLower(c)]; !ok {
				return nil, fmt.Errorf("table %s: foreign key column %s not found", name, c)
			}
		}
		if len(fk.Columns) != len(fk.RefColumns) {
			return nil, fmt.Errorf("table %s: foreign key arity mismatch referencing %s", name, fk.RefTable)
		}
	}
	return t, nil
}

// MustTable is NewTable that panics on error; for statically-known schemas.
func MustTable(name string, cols []Column, pk []string, fks ...ForeignKey) *Table {
	t, err := NewTable(name, cols, pk, fks...)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnIndex returns the offset of the named column, or -1.
// Lookup is case-insensitive.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.ColumnIndex(name)
	if i < 0 {
		return nil
	}
	return &t.Columns[i]
}

// PrimaryKeyOffsets returns the column offsets of the primary key.
func (t *Table) PrimaryKeyOffsets() []int {
	out := make([]int, len(t.PrimaryKey))
	for i, name := range t.PrimaryKey {
		out[i] = t.ColumnIndex(name)
	}
	return out
}

// RowWidth returns the modeled average stored row width in bytes.
func (t *Table) RowWidth() int {
	w := 4 // row header
	for _, c := range t.Columns {
		w += c.Width()
	}
	return w
}

// IndexableColumns returns the names of all indexable columns in
// declaration order. This defines the 1C configuration for the table.
func (t *Table) IndexableColumns() []string {
	out := make([]string, 0, len(t.Columns))
	for _, c := range t.Columns {
		if c.Indexable {
			out = append(out, c.Name)
		}
	}
	return out
}

// Schema is a named collection of tables.
type Schema struct {
	Name   string
	tables map[string]*Table
	order  []string
}

// NewSchema creates an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, tables: make(map[string]*Table)}
}

// Add registers a table; it returns an error on duplicate names.
func (s *Schema) Add(t *Table) error {
	lc := strings.ToLower(t.Name)
	if _, dup := s.tables[lc]; dup {
		return fmt.Errorf("schema %s: duplicate table %s", s.Name, t.Name)
	}
	s.tables[lc] = t
	s.order = append(s.order, t.Name)
	return nil
}

// MustAdd is Add that panics on error.
func (s *Schema) MustAdd(t *Table) {
	if err := s.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the named table (case-insensitive), or nil.
func (s *Schema) Table(name string) *Table {
	return s.tables[strings.ToLower(name)]
}

// Tables returns all tables in declaration order.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, len(s.order))
	for i, n := range s.order {
		out[i] = s.tables[strings.ToLower(n)]
	}
	return out
}

// DomainColumns returns, for every domain, the (table, column) pairs in it,
// in schema declaration order. Only indexable columns participate.
func (s *Schema) DomainColumns() map[string][]ColumnRef {
	out := make(map[string][]ColumnRef)
	for _, t := range s.Tables() {
		for _, c := range t.Columns {
			if c.Domain != "" && c.Indexable {
				out[c.Domain] = append(out[c.Domain], ColumnRef{Table: t.Name, Column: c.Name})
			}
		}
	}
	return out
}

// ColumnRef names a column of a table.
type ColumnRef struct {
	Table  string
	Column string
}

func (r ColumnRef) String() string { return r.Table + "." + r.Column }
