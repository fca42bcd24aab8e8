package plan

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/sql"
	"repro/internal/val"
)

func analyzed(t *testing.T, text string) *sql.Query {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(catalog.NREF(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestLayoutOffsets(t *testing.T) {
	q := analyzed(t, `SELECT t.lineage, COUNT(*) FROM source s, taxonomy t, taxonomy t2
		WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage GROUP BY t.lineage`)
	l := NewLayout(q)
	// source has 6 columns, taxonomy 5: bases 0, 6, 11; width 16.
	if len(l.Base) != 3 || l.Base[0] != 0 || l.Base[1] != 6 || l.Base[2] != 11 || l.Width != 16 {
		t.Fatalf("layout = %+v", l)
	}
	// t.lineage is table 1, column 2 -> offset 8.
	if off := l.Offset(sql.QCol{Tab: 1, Col: 2}); off != 8 {
		t.Errorf("offset = %d", off)
	}
}

func TestFilterEval(t *testing.T) {
	r := val.Row{val.Int(5), val.String("x")}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{Offset: 0, Op: "=", Value: val.Int(5)}, true},
		{Filter{Offset: 0, Op: "<", Value: val.Int(5)}, false},
		{Filter{Offset: 1, Op: ">=", Value: val.String("w")}, true},
	}
	for _, c := range cases {
		if got := c.f.Eval(r); got != c.want {
			t.Errorf("Eval(%+v) = %v", c.f, got)
		}
	}
}

func TestDescribeAndExplainCoverAllNodes(t *testing.T) {
	info := &TableInfo{Table: catalog.NREF().Table("protein")}
	ix := &IndexInfo{Def: conf.IndexDef{Table: "protein", Columns: []string{"length"}}, Name: "ix_protein_length", Cols: []int{4}}
	nodes := []Node{
		&SeqScan{Info: info},
		&IndexScan{Info: info, Index: ix, Covering: true},
		&HashJoin{Build: &SeqScan{Info: info}, Probe: &SeqScan{Info: info}},
		&IndexJoin{Outer: &SeqScan{Info: info}, Info: info, Index: ix},
		&MergeJoin{L: MergeSide{Info: info, Index: ix}, R: MergeSide{Info: info, Index: ix}},
		&HashAgg{Input: &SeqScan{Info: info}},
		&Project{Input: &SeqScan{Info: info}},
	}
	for _, n := range nodes {
		if n.Describe() == "" {
			t.Errorf("%T has empty Describe", n)
		}
	}
	p := &Plan{
		Query:  analyzed(t, "SELECT length, COUNT(*) FROM protein GROUP BY length"),
		Root:   &HashAgg{Input: &SeqScan{Info: info}},
		InSets: []InSetPlan{{Pred: sql.InPred{SubTable: info.Table}, Info: info}},
	}
	out := p.Explain()
	if !strings.Contains(out, "HashAgg") || !strings.Contains(out, "SeqScan") ||
		!strings.Contains(out, "inset[0]") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestPhysicalLookups(t *testing.T) {
	schema := catalog.NREF()
	p := &Physical{
		Schema:  schema,
		Tables:  map[string]*TableInfo{"protein": {Table: schema.Table("protein")}},
		Indexes: map[string][]*IndexInfo{"protein": {{}}},
	}
	if p.Table("PROTEIN") == nil {
		t.Error("table lookup must be case-insensitive")
	}
	if len(p.IndexesOn("Protein")) != 1 {
		t.Error("index lookup must be case-insensitive")
	}
	if p.Table("nope") != nil {
		t.Error("missing table must be nil")
	}
}
