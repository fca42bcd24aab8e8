package catalog

import (
	"strings"
	"testing"
)

func TestNREFSchemaShape(t *testing.T) {
	s := NREF()
	names := s.TableNames()
	want := []string{"protein", "source", "taxonomy", "organism", "neighboring_seq", "identical_seq"}
	if len(names) != len(want) {
		t.Fatalf("tables = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("table %d = %s, want %s", i, names[i], want[i])
		}
	}
	p := s.Table("protein")
	if p == nil || len(p.PrimaryKey) != 1 || p.PrimaryKey[0] != "nref_id" {
		t.Fatalf("protein PK = %v", p.PrimaryKey)
	}
	// The sequence column is excluded from indexing (paper restriction).
	if p.Column("sequence").Indexable {
		t.Error("sequence must not be indexable")
	}
	// Neighboring_seq is the widest relation.
	widest := ""
	maxW := 0
	for _, tab := range s.Tables() {
		if w := tab.RowWidth(); w > maxW {
			maxW, widest = w, tab.Name
		}
	}
	if widest != "neighboring_seq" && widest != "protein" {
		t.Errorf("unexpected widest table %s", widest)
	}
}

func TestNREFDomains(t *testing.T) {
	s := NREF()
	domains := s.DomainColumns()
	// The nref domain spans every table.
	tables := make(map[string]bool)
	for _, ref := range domains["nref"] {
		tables[strings.ToLower(ref.Table)] = true
	}
	if len(tables) != 6 {
		t.Errorf("nref domain covers %d tables, want 6", len(tables))
	}
	if len(domains["taxon"]) < 4 {
		t.Errorf("taxon domain too small: %v", domains["taxon"])
	}
}

func TestTPCHSchemaShape(t *testing.T) {
	s := TPCH()
	if len(s.Tables()) != 8 {
		t.Fatalf("tables = %d, want 8", len(s.Tables()))
	}
	li := s.Table("lineitem")
	if len(li.PrimaryKey) != 2 {
		t.Errorf("lineitem PK = %v", li.PrimaryKey)
	}
	if len(li.ForeignKeys) != 2 {
		t.Errorf("lineitem FKs = %d", len(li.ForeignKeys))
	}
	// The composite FK to partsupp has two columns.
	for _, fk := range li.ForeignKeys {
		if strings.EqualFold(fk.RefTable, "partsupp") && len(fk.Columns) != 2 {
			t.Errorf("partsupp FK columns = %v", fk.Columns)
		}
	}
}

func TestFullScaleRowCounts(t *testing.T) {
	nref := NREFFullScaleRows()
	if nref["neighboring_seq"] != 78_700_000 || nref["taxonomy"] != 15_100_000 {
		t.Errorf("NREF row counts wrong: %v", nref)
	}
	tpch := TPCHFullScaleRows()
	if tpch["lineitem"] != 60_000_000 || tpch["region"] != 5 {
		t.Errorf("TPC-H row counts wrong: %v", tpch)
	}
	for _, s := range []*Schema{NREF(), TPCH()} {
		counts := nref
		if s.Name == "tpch" {
			counts = tpch
		}
		for _, tab := range s.Tables() {
			if counts[tab.Name] <= 0 {
				t.Errorf("no full-scale count for %s.%s", s.Name, tab.Name)
			}
		}
	}
}

func TestColumnLookupCaseInsensitive(t *testing.T) {
	s := NREF()
	tab := s.Table("TAXONOMY")
	if tab == nil {
		t.Fatal("case-insensitive table lookup failed")
	}
	if tab.ColumnIndex("TAXON_ID") != 1 {
		t.Errorf("ColumnIndex = %d", tab.ColumnIndex("TAXON_ID"))
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewTable("t", []Column{{Name: "a"}, {Name: "A"}}, nil); err == nil {
		t.Error("duplicate columns must be rejected")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, []string{"b"}); err == nil {
		t.Error("unknown PK column must be rejected")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, nil,
		ForeignKey{Columns: []string{"z"}, RefTable: "u", RefColumns: []string{"x"}}); err == nil {
		t.Error("unknown FK column must be rejected")
	}
	if _, err := NewTable("t", []Column{{Name: "a"}}, nil,
		ForeignKey{Columns: []string{"a"}, RefTable: "u", RefColumns: []string{"x", "y"}}); err == nil {
		t.Error("FK arity mismatch must be rejected")
	}
	s := NewSchema("s")
	s.MustAdd(MustTable("t", []Column{{Name: "a"}}, nil))
	if err := s.Add(MustTable("T", []Column{{Name: "a"}}, nil)); err == nil {
		t.Error("duplicate table must be rejected")
	}
}

func TestIndexableColumns(t *testing.T) {
	tab := MustTable("t", []Column{
		{Name: "a", Indexable: true},
		{Name: "b"},
		{Name: "c", Indexable: true},
	}, nil)
	cols := tab.IndexableColumns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "c" {
		t.Errorf("IndexableColumns = %v", cols)
	}
}

// TableNames returns the table names in declaration order.
func (s *Schema) TableNames() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}
