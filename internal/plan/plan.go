// Package plan defines physical query plans and the physical-database
// description (tables, indexes, materialized views) shared by the
// optimizer, the executor and the engine.
//
// A plan operates over a flat row layout: the concatenation of the columns
// of every relation in the query's FROM list. Scans populate their
// relation's segment, joins merge segments, and aggregation/projection map
// global offsets to output columns. The layout makes column addressing
// uniform across arbitrary join orders.
package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// TableInfo is a base table with its storage and statistics.
type TableInfo struct {
	Table *catalog.Table
	Heap  *storage.Heap
	Stats *stats.TableStats
}

// IndexInfo describes an index, actual or hypothetical, over a base table
// or a materialized view.
type IndexInfo struct {
	Def conf.IndexDef
	// Name is Def.Name(), rendered once by whoever builds the description:
	// it is the index's sort key, compared on every optimization.
	Name string
	Cols []int // key column offsets within the indexed relation's schema

	// Tree is the built index; nil when Hypothetical.
	Tree         *btree.Tree
	Hypothetical bool

	// KeyNDV[i] is the number of distinct values of the first i+1 key
	// columns. Measured exactly at build time for actual indexes;
	// derived from column statistics for hypothetical ones.
	KeyNDV []int64

	// Size model, actual (from the tree) or estimated (hypothetical).
	Bytes          int64
	Height         int
	LeafPages      int64
	EntriesPerLeaf int64
}

// ViewInfo is a materialized view: its definition, the analyzed defining
// query, its synthesized schema and its materialized heap.
type ViewInfo struct {
	Def   conf.ViewDef
	Query *sql.Query // defining query over base tables (plain projection)
	Table *catalog.Table
	Heap  *storage.Heap
	Stats *stats.TableStats
	// OutSrc[i] identifies view column i as (table ordinal, column offset)
	// in the defining query.
	OutSrc []sql.QCol
}

// Physical describes everything the optimizer may use: base tables,
// materialized views, the indexes of the current (or a hypothetical)
// configuration, the memory budget and the cost model.
type Physical struct {
	Schema *catalog.Schema
	Tables map[string]*TableInfo // keyed by lower-case table name
	Views  []*ViewInfo
	// Indexes is keyed by lower-case relation (table or view) name.
	Indexes map[string][]*IndexInfo

	// Mem is the memory budget in full-scale bytes: hash tables whose
	// full-scale size exceeds it spill to disk.
	Mem   int64
	Model cost.Model

	// TabTables and TabIndexes, when non-nil, override the name-keyed
	// maps per query table ordinal. A sharded execution plans one query
	// against a mix of placements — the same table name can be a
	// partition slice for one ordinal (a partition-wise join side) and
	// the coordinator's full data for another (a broadcast side) — which
	// a name-keyed map cannot express. A nil entry falls back to the
	// name lookup; a non-nil TabIndexes entry is authoritative even when
	// empty (an exchanged relation has data but no indexes).
	TabTables  []*TableInfo
	TabIndexes [][]*IndexInfo
}

// Table returns the TableInfo for a base table name.
func (p *Physical) Table(name string) *TableInfo {
	return p.Tables[strings.ToLower(name)]
}

// IndexesOn returns the indexes on the named relation.
func (p *Physical) IndexesOn(name string) []*IndexInfo {
	return p.Indexes[strings.ToLower(name)]
}

// TableAt returns the TableInfo for query table ordinal t, honoring the
// per-ordinal override before the name lookup.
func (p *Physical) TableAt(t int, name string) *TableInfo {
	if t >= 0 && t < len(p.TabTables) && p.TabTables[t] != nil {
		return p.TabTables[t]
	}
	return p.Table(name)
}

// IndexesAt returns the indexes usable for query table ordinal t,
// honoring the per-ordinal override (including an empty "no indexes
// here" override) before the name lookup.
func (p *Physical) IndexesAt(t int, name string) []*IndexInfo {
	if t >= 0 && t < len(p.TabIndexes) && p.TabIndexes[t] != nil {
		return p.TabIndexes[t]
	}
	return p.IndexesOn(name)
}

// SortIndexes orders an index list by name in place. Builders of Physical
// descriptions (the engine, the what-if assembler) call it once per
// relation list so that the optimizer's deterministic iteration order is
// established at construction instead of being re-sorted into a fresh
// copy on every access.
func SortIndexes(ixs []*IndexInfo) {
	slices.SortFunc(ixs, func(a, b *IndexInfo) int { return strings.Compare(a.Name, b.Name) })
}

// Layout maps (table ordinal, column offset) pairs of a query to offsets
// in the flat execution row.
type Layout struct {
	Base  []int // Base[t] is the starting offset of table t's segment
	Width int
}

// NewLayout computes the layout for the query's FROM list.
func NewLayout(q *sql.Query) Layout {
	l := Layout{Base: make([]int, len(q.Tables))}
	off := 0
	for i, t := range q.Tables {
		l.Base[i] = off
		off += len(t.Table.Columns)
	}
	l.Width = off
	return l
}

// Offset returns the flat offset of a query column.
func (l Layout) Offset(c sql.QCol) int { return l.Base[c.Tab] + c.Col }

// Est is the optimizer's estimate for a (sub)plan: output cardinality and
// estimated work, with the work also converted to simulated seconds.
type Est struct {
	Rows    float64
	Meter   cost.Meter
	Seconds float64
}

// Filter is a pushed-down comparison between a flat-row column and a
// constant.
type Filter struct {
	Offset int
	Op     string
	Value  val.Value
}

// Eval reports whether the row passes the filter.
func (f Filter) Eval(r val.Row) bool { return sql.CompareOp(f.Op, r[f.Offset], f.Value) }

// InFilter applies a precomputed IN-subquery set to a flat-row column.
type InFilter struct {
	Offset int
	SetID  int // index into Plan.InSets
}

// KeyBind binds one index key column either to a constant or to a column
// of the outer row (for index nested-loop joins).
type KeyBind struct {
	Const       *val.Value
	OuterOffset int // meaningful when Const is nil
}

// RangeBound is a trailing inequality on the index column after the bound
// equality prefix.
type RangeBound struct {
	Op    string // < <= > >=
	Value val.Value
}

// Node is a physical plan operator.
type Node interface {
	// Estimate returns the optimizer's estimate for the subtree.
	Estimate() Est
	// Describe renders a one-line description (EXPLAIN-style).
	Describe() string
}

// SeqScan reads all rows of a base relation.
type SeqScan struct {
	Tab     int // query table ordinal
	Info    *TableInfo
	Filters []Filter
	Ins     []InFilter
	Est     Est
}

// IndexScan reads rows matching an equality prefix (of constants) and an
// optional trailing range. If Covering, the heap is never touched and the
// flat row is populated from index key columns only.
//
// When DriveInSet >= 0 the scan is instead driven by the values of the
// referenced IN-subquery set: the index's first key column is probed once
// per set value (an IN-list index probe), which turns a highly selective
// IN predicate into point lookups instead of a full-table filter.
type IndexScan struct {
	Tab        int
	Info       *TableInfo
	Index      *IndexInfo
	EqVals     []val.Value
	Range      *RangeBound
	DriveInSet int // -1 when not set-driven
	Filters    []Filter
	Ins        []InFilter
	Covering   bool
	// RidSort selects list-prefetch heap access: matching rids are
	// gathered from the index, sorted, and the heap is read in page
	// order (sequential I/O) instead of one random page per row.
	RidSort bool
	Est     Est
}

// EqPair is a residual equality between two flat-row offsets (join
// predicates an index join could not consume as key bindings).
type EqPair struct {
	A, B int
}

// ViewScan reads a materialized view that covers a set of query tables,
// translating view columns into the flat layout. An optional view index
// with an equality prefix turns it into an index scan over the view.
type ViewScan struct {
	Tabs []int // query table ordinals covered by the view
	View *ViewInfo
	// ColOffsets[i] is the flat-row offset for view column i (-1 if the
	// query does not need that column).
	ColOffsets []int
	Index      *IndexInfo // optional
	EqVals     []val.Value
	Filters    []Filter
	Ins        []InFilter
	Est        Est
}

// HashJoin builds a hash table on Build and probes with Probe. Empty key
// lists denote a cross join. BuildWidth is the modeled per-row byte width
// of the build side (needed columns only), used for the spill decision.
type HashJoin struct {
	Build, Probe         Node
	BuildKeys, ProbeKeys []int // flat offsets
	BuildWidth           int
	Est                  Est
}

// IndexJoin is an index nested-loop join: for each outer row, the inner
// relation's index is probed with the bound key prefix.
type IndexJoin struct {
	Outer   Node
	Tab     int // inner query table ordinal
	Info    *TableInfo
	Index   *IndexInfo
	Binds   []KeyBind
	Filters []Filter
	Ins     []InFilter
	// PostEq are join predicates between outer and inner that the index
	// prefix could not consume; evaluated after the inner row is formed.
	PostEq   []EqPair
	Covering bool
	Est      Est
}

// AggSpec is one aggregate computed by HashAgg.
type AggSpec struct {
	Kind   sql.AggKind
	Offset int // flat offset of the argument (unused for COUNT(*))
}

// HashAgg groups rows by the given flat offsets and computes aggregates.
// GroupWidth is the modeled per-group byte width for the spill decision.
type HashAgg struct {
	Input      Node
	Groups     []int
	Aggs       []AggSpec
	GroupWidth int
	Est        Est
}

// Project maps flat-row offsets to output columns (plain SPJ queries).
type Project struct {
	Input   Node
	Offsets []int
	Est     Est
}

// Estimate implementations.
func (n *SeqScan) Estimate() Est   { return n.Est }
func (n *IndexScan) Estimate() Est { return n.Est }
func (n *ViewScan) Estimate() Est  { return n.Est }
func (n *HashJoin) Estimate() Est  { return n.Est }
func (n *IndexJoin) Estimate() Est { return n.Est }
func (n *HashAgg) Estimate() Est   { return n.Est }
func (n *Project) Estimate() Est   { return n.Est }

// Describe implementations.
func (n *SeqScan) Describe() string {
	return fmt.Sprintf("SeqScan(%s) filters=%d rows≈%.0f", n.Info.Table.Name, len(n.Filters)+len(n.Ins), n.Est.Rows)
}

func (n *IndexScan) Describe() string {
	kind := "IndexScan"
	if n.Covering {
		kind = "IndexOnlyScan"
	}
	return fmt.Sprintf("%s(%s eq=%d) rows≈%.0f", kind, n.Index.Def.Name(), len(n.EqVals), n.Est.Rows)
}

func (n *ViewScan) Describe() string {
	ix := ""
	if n.Index != nil {
		ix = " via " + n.Index.Def.Name()
	}
	return fmt.Sprintf("ViewScan(%s%s) rows≈%.0f", n.View.Def.Name, ix, n.Est.Rows)
}

func (n *HashJoin) Describe() string {
	return fmt.Sprintf("HashJoin keys=%d rows≈%.0f", len(n.BuildKeys), n.Est.Rows)
}

func (n *IndexJoin) Describe() string {
	return fmt.Sprintf("IndexJoin(%s) rows≈%.0f", n.Index.Def.Name(), n.Est.Rows)
}

func (n *HashAgg) Describe() string {
	return fmt.Sprintf("HashAgg groups=%d aggs=%d rows≈%.0f", len(n.Groups), len(n.Aggs), n.Est.Rows)
}

func (n *Project) Describe() string {
	return fmt.Sprintf("Project cols=%d", len(n.Offsets))
}

// InSetPlan is the plan for computing one IN-subquery's qualifying set.
// The set is computed once per query execution.
type InSetPlan struct {
	Pred sql.InPred
	// Index, when set, lets the set be computed with an index-only scan
	// over the subquery column (keys arrive sorted, so the HAVING
	// COUNT(*) filter streams); otherwise the subquery table is scanned
	// and aggregated.
	Index *IndexInfo
	Info  *TableInfo
	Est   Est
}

// Plan is a complete physical plan.
type Plan struct {
	Query  *sql.Query
	Layout Layout
	Root   Node
	InSets []InSetPlan
	// Mem is the full-scale memory budget the plan was costed under; the
	// executor uses it for its own (actual-size) spill decisions.
	Mem int64
	// Est is the total estimate: root plus IN-set computations.
	Est Est
}

// Explain renders the plan tree.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan: est %.2fs, %.0f rows\n", p.Est.Seconds, p.Root.Estimate().Rows)
	for i, s := range p.InSets {
		src := "seqscan+agg"
		if s.Index != nil {
			src = "index-only " + s.Index.Def.Name()
		}
		fmt.Fprintf(&sb, "  inset[%d]: %s on %s est %.2fs\n", i, src, s.Pred.SubTable.Name, s.Est.Seconds)
	}
	explainNode(&sb, p.Root, 1)
	return sb.String()
}

func explainNode(sb *strings.Builder, n Node, depth int) {
	fmt.Fprintf(sb, "%s%s\n", strings.Repeat("  ", depth), n.Describe())
	switch n := n.(type) {
	case *HashJoin:
		explainNode(sb, n.Build, depth+1)
		explainNode(sb, n.Probe, depth+1)
	case *IndexJoin:
		explainNode(sb, n.Outer, depth+1)
	case *HashAgg:
		explainNode(sb, n.Input, depth+1)
	case *Project:
		explainNode(sb, n.Input, depth+1)
	}
}

// KeyPred is a comparison applied to an index key value before any heap
// fetch (merge-join key filtering).
type KeyPred struct {
	Op    string
	Value val.Value
}

// KeyIn applies an IN-subquery set to an index key value before fetch.
type KeyIn struct {
	SetID int
}

// MergeSide is one input of a MergeJoin: a full ordered scan of an index
// whose first key column is the join column, with key-level predicates
// applied before fetching and post predicates after.
type MergeSide struct {
	Tab      int
	Info     *TableInfo
	Index    *IndexInfo
	KeyPreds []KeyPred
	KeyIns   []KeyIn
	// Post predicates reference flat-row offsets and run after the side's
	// row is materialized (from the key when Covering, else by fetch).
	PostFilters []Filter
	PostIns     []InFilter
	Covering    bool
}

// MergeJoin merges two index leaf streams ordered by the join column.
// Rows surviving the key-level predicates pair up by key; the heaps are
// touched only for surviving rows, rid-sorted. This is the plan shape
// that makes comprehensive single-column indexing (the 1C configuration)
// effective on co-occurrence joins: the join itself runs entirely inside
// the indexes.
type MergeJoin struct {
	L, R MergeSide
	Est  Est
}

// Estimate implements Node.
func (n *MergeJoin) Estimate() Est { return n.Est }

// Describe implements Node.
func (n *MergeJoin) Describe() string {
	return fmt.Sprintf("MergeJoin(%s, %s) rows≈%.0f",
		n.L.Index.Def.Name(), n.R.Index.Def.Name(), n.Est.Rows)
}
