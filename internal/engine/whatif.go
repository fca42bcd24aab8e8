package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
)

// whatifCalls and whatifHits count estimate invocations and relevance-
// cache hits process-wide. They are observability only — the benchmark's
// engine.whatif.hit_rate reads them — and nothing on a decision path does.
var (
	whatifCalls atomic.Int64
	whatifHits  atomic.Int64
)

// WhatIfCounters returns the process-wide what-if estimate call and
// cache-hit counts since the last reset.
func WhatIfCounters() (calls, hits int64) {
	return whatifCalls.Load(), whatifHits.Load()
}

// ResetWhatIfCounters zeroes the process-wide what-if counters (bench
// drivers reset them between measurement phases).
func ResetWhatIfCounters() {
	whatifCalls.Store(0)
	whatifHits.Store(0)
}

// WhatIf is a hypothetical-configuration estimation session: it answers
// H(q, Ch, Ca) — "what would query q cost in configuration Ch?" — while
// the engine remains in its actual configuration Ca.
//
// Structures of Ch that exist in Ca are described by their measured
// statistics; everything else gets *derived* statistics (composite
// distinct counts under an independence assumption, no page-locality
// credit, and the profile's row-count penalty). This derivation gap is
// the recommender weakness the paper's Section 5 demonstrates.
//
// The session memoizes aggressively — this is the recommender search's
// inner loop:
//
//   - derivation caches hold hypothetical index/view descriptions per
//     definition, and resolution caches hold the actual-or-derived
//     description per definition, so a search evaluating hundreds of
//     candidates pays each derivation and catalog lookup once;
//   - estimates themselves are cached under a relevance key: the query's
//     fingerprint plus only the structures on relations the query can
//     touch, so candidate configurations differing in irrelevant
//     structures share one optimizer invocation.
//
// The session pins the engine snapshot its caches were derived from and
// flushes them when the engine has published another (ApplyConfig,
// Transition, Load, InsertRows, CollectStats, NoteTopologyChange), so a
// session may outlive configuration changes — the autopilot controller
// keeps one across retunes. A session may be shared by concurrent
// estimators: mu guards the caches, the optimizer runs outside it, and no
// estimation entry point takes an engine lock.
type WhatIf struct {
	e *Engine
	// caching is fixed at session creation from the engine's
	// DisableWhatIfCache.
	caching bool

	// mu guards the caches. The values the maps hold (*plan.IndexInfo,
	// *plan.ViewInfo) are immutable once published, so estimators keep
	// using them after releasing mu.
	mu     sync.Mutex
	pinned *snapshot // conflint:guardedby mu (the engine snapshot the caches belong to)

	indexCache map[string]*plan.IndexInfo     // conflint:guardedby mu
	viewCache  map[string]*plan.ViewInfo      // conflint:guardedby mu
	resIndex   map[ixKey][]resolvedIndex      // conflint:guardedby mu (actual-or-hypo, bucketed by ixKey)
	resView    map[string]*plan.ViewInfo      // conflint:guardedby mu (actual-or-hypo, by lower name)
	queries    map[*sql.Query]*queryRelevance // conflint:guardedby mu
	estimates  map[string]estEntry            // conflint:guardedby mu
}

// queryRelevance is a query's once-computed fingerprint: its canonical
// SQL text and the set of relations whose physical structures can
// influence its plan — the FROM-list tables plus the tables of its
// IN-subqueries (planInSets consults indexes on those).
type queryRelevance struct {
	sql    string
	tables map[string]bool
}

// estEntry is one cached estimation result.
type estEntry struct {
	seconds float64
	meter   cost.Meter
}

// resolvedIndex is one memoized actual-or-derived index description with
// its definition name computed once — the name is the index's cache-key
// component, and rebuilding it per estimate showed up in profiles.
type resolvedIndex struct {
	def  conf.IndexDef
	name string
	ix   *plan.IndexInfo
}

// ixKey buckets interned index resolutions. Equal definitions always
// land in the same bucket, and the bucket scan stays short even under
// System A's permutation generator, which produces hundreds of
// distinct defs per table but spreads them across first columns.
type ixKey struct {
	table string
	n     int
	first string
}

func keyOf(d conf.IndexDef) ixKey {
	k := ixKey{table: strings.ToLower(d.Table), n: len(d.Columns)}
	if k.n > 0 {
		k.first = strings.ToLower(d.Columns[0])
	}
	return k
}

// NewWhatIf opens a what-if session against the current configuration.
func (e *Engine) NewWhatIf() *WhatIf {
	return &WhatIf{
		e:       e,
		caching: !e.DisableWhatIfCache,
		queries: make(map[*sql.Query]*queryRelevance),
	}
}

// Engine returns the engine the session estimates against.
func (w *WhatIf) Engine() *Engine { return w.e }

// AnalyzeSQL parses and analyzes a query once for repeated estimation.
func (e *Engine) AnalyzeSQL(sqlText string) (*sql.Query, error) {
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	return sql.Analyze(e.Schema, stmt)
}

// pinLocked returns the engine's published snapshot, first flushing the
// derivation, resolution and estimate caches if they were filled under
// another one (invalidation on RUNSTATS, transitions and loads). Query
// fingerprints survive: they depend only on the query text. The caller
// holds w.mu.
func (w *WhatIf) pinLocked() *snapshot {
	if s := w.e.snap(); w.pinned != s {
		w.pinned = s
		w.indexCache = make(map[string]*plan.IndexInfo)
		w.viewCache = make(map[string]*plan.ViewInfo)
		w.resIndex = make(map[ixKey][]resolvedIndex)
		w.resView = make(map[string]*plan.ViewInfo)
		w.estimates = make(map[string]estEntry)
	}
	return w.pinned
}

// Estimate returns H(q, Ch, Ca) for the hypothetical configuration.
func (w *WhatIf) Estimate(q *sql.Query, hypo conf.Configuration) (Measure, error) {
	whatifCalls.Add(1)
	if !w.caching {
		return w.estimateUncached(q, hypo)
	}
	return w.estimate(q, hypo.Views, hypo.Indexes, nil, nil)
}

// EstimateWith returns H(q, base+delta, Ca) without materializing the
// combined configuration — the delta path the greedy search's
// base-plus-one-candidate trials take. The result is identical to
// Estimate against candidate.applyTo(base): delta views whose name base
// already holds and delta indexes base already defines are skipped,
// mirroring Configuration.HasView/AddIndex deduplication.
func (w *WhatIf) EstimateWith(q *sql.Query, base, delta conf.Configuration) (Measure, error) {
	whatifCalls.Add(1)
	if !w.caching {
		return w.estimateUncached(q, combineConfig(base, delta))
	}
	return w.estimate(q, base.Views, base.Indexes, delta.Views, delta.Indexes)
}

// estimateUncached is the pre-cache code path, kept verbatim as the
// reference the cache-identity tests compare against.
func (w *WhatIf) estimateUncached(q *sql.Query, hypo conf.Configuration) (Measure, error) {
	phys, err := w.physical(hypo)
	if err != nil {
		return Measure{}, err
	}
	p, err := optimizer.Optimize(phys, q, w.e.Profile.Opts)
	if err != nil {
		return Measure{}, err
	}
	return Measure{SQL: q.SQL(), Seconds: p.Est.Seconds, Meter: p.Est.Meter}, nil
}

// estimate is the relevance-keyed fast path. The hypothetical
// configuration arrives as base plus an optional delta. Every definition
// is resolved (memoized per snapshot) so derivation errors surface exactly
// as on the uncached path; the estimate is then keyed by the query
// fingerprint plus only the relevant structures:
//
//   - a view is relevant iff every table of its defining query is among
//     the query's relevant tables — view matching requires an unambiguous
//     mapping of all defining tables into the query, so an excluded view
//     can never produce a candidate;
//   - an index is relevant iff its relation is a relevant table or a
//     relevant view — the optimizer consults IndexesOn only for FROM
//     tables, IN-subquery tables and matched views.
//
// Two candidate configurations that agree on the relevant subset
// therefore share one cache entry and one optimizer invocation.
func (w *WhatIf) estimate(q *sql.Query, baseViews []conf.ViewDef, baseIx []conf.IndexDef,
	deltaViews []conf.ViewDef, deltaIx []conf.IndexDef) (Measure, error) {
	c, err := w.lookup(q, baseViews, baseIx, deltaViews, deltaIx)
	if err != nil {
		return Measure{}, err
	}
	if c.hit {
		whatifHits.Add(1)
		return Measure{SQL: c.sql, Seconds: c.ent.seconds, Meter: c.ent.meter}, nil
	}
	return w.fill(q, c)
}

// fill is the miss path: assemble the candidate physical incrementally —
// the snapshot lookup pinned supplies the tables; only the relevant
// structures are attached — optimize, and cache the result. Per-relation
// lists are name-sorted here, once, so the optimizer's sortedIndexes
// takes its no-copy path. The optimizer runs outside w.mu: workers racing
// on the same key duplicate the optimization but store identical results.
func (w *WhatIf) fill(q *sql.Query, c candidate) (Measure, error) {
	phys := &plan.Physical{
		Schema:  w.e.Schema,
		Tables:  c.snap.phys.Tables,
		Views:   c.views,
		Indexes: make(map[string][]*plan.IndexInfo, len(c.indexes)),
		Mem:     w.e.Profile.MemBytes,
		Model:   w.e.Model,
	}
	for _, ix := range c.indexes {
		rel := strings.ToLower(ix.Def.Table)
		phys.Indexes[rel] = append(phys.Indexes[rel], ix)
	}
	for _, list := range phys.Indexes {
		plan.SortIndexes(list)
	}
	p, err := optimizer.Optimize(phys, q, w.e.Profile.Opts)
	if err != nil {
		return Measure{}, err
	}
	w.mu.Lock()
	// An estimate derived from a snapshot the session has since left must
	// not land in the flushed cache.
	if w.pinned == c.snap {
		w.estimates[c.key] = estEntry{seconds: p.Est.Seconds, meter: p.Est.Meter}
	}
	w.mu.Unlock()
	return Measure{SQL: c.sql, Seconds: p.Est.Seconds, Meter: p.Est.Meter}, nil
}

// candidate is what lookup resolves one estimate request to: the cache
// key and either the cached entry or the material to optimize against.
type candidate struct {
	snap    *snapshot // the snapshot everything below was resolved under
	sql     string
	key     string
	hit     bool
	ent     estEntry
	views   []*plan.ViewInfo
	indexes []*plan.IndexInfo
}

// lookup is the part of estimate that runs under w.mu: pin the engine
// snapshot, resolve every definition, build the relevance key and probe
// the estimate cache.
func (w *WhatIf) lookup(q *sql.Query, baseViews []conf.ViewDef, baseIx []conf.IndexDef,
	deltaViews []conf.ViewDef, deltaIx []conf.IndexDef) (candidate, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := candidate{snap: w.pinLocked()}
	fp := w.relevanceLocked(q)
	c.sql = fp.sql

	var key strings.Builder
	key.Grow(len(fp.sql) + 24*(len(baseViews)+len(deltaViews)+len(baseIx)+len(deltaIx)))
	key.WriteString(fp.sql)

	// Views first (indexes on views resolve against them); base before
	// delta, in configuration order — phys.Views order decides equal-cost
	// ties, so it is part of the key by construction.
	c.views = make([]*plan.ViewInfo, 0, len(baseViews)+len(deltaViews))
	relNames := make(map[string]bool, len(baseViews)+len(deltaViews))
	for _, vd := range baseViews {
		if err := w.noteView(vd, fp, &c.views, relNames, &key); err != nil {
			return c, err
		}
	}
	for i, vd := range deltaViews {
		if viewNamed(baseViews, vd.Name) || viewNamed(deltaViews[:i], vd.Name) {
			continue
		}
		if err := w.noteView(vd, fp, &c.views, relNames, &key); err != nil {
			return c, err
		}
	}
	c.indexes = make([]*plan.IndexInfo, 0, len(baseIx)+len(deltaIx))
	for _, d := range baseIx {
		if err := w.noteIndex(d, fp, relNames, &c.indexes, &key); err != nil {
			return c, err
		}
	}
	for i, d := range deltaIx {
		if indexDefined(baseIx, d) || indexDefined(deltaIx[:i], d) {
			continue
		}
		if err := w.noteIndex(d, fp, relNames, &c.indexes, &key); err != nil {
			return c, err
		}
	}
	c.key = key.String()
	c.ent, c.hit = w.estimates[c.key]
	return c, nil
}

// relevanceLocked returns the memoized fingerprint of an analyzed query.
// Caller holds w.mu exclusively.
func (w *WhatIf) relevanceLocked(q *sql.Query) *queryRelevance {
	if fp, ok := w.queries[q]; ok {
		return fp
	}
	fp := &queryRelevance{
		sql:    q.SQL(),
		tables: make(map[string]bool, len(q.Tables)+len(q.Ins)),
	}
	for _, t := range q.Tables {
		fp.tables[strings.ToLower(t.Table.Name)] = true
	}
	for _, p := range q.Ins {
		fp.tables[strings.ToLower(p.SubTable.Name)] = true
	}
	w.queries[q] = fp
	return fp
}

// noteView resolves one view of the hypothetical configuration and, when
// relevant to the query, records it for assembly and in the cache key.
// Resolution is keyed by name (first definition wins), matching the
// derivation cache's semantics, so the name alone identifies the
// description within a snapshot.
func (w *WhatIf) noteView(vd conf.ViewDef, fp *queryRelevance,
	relViews *[]*plan.ViewInfo, relNames map[string]bool, key *strings.Builder) error {
	vi, err := w.resolveView(vd)
	if err != nil {
		return err
	}
	for _, t := range vi.Query.Tables {
		if !fp.tables[strings.ToLower(t.Table.Name)] {
			return nil // a defining table is absent: the view can never match
		}
	}
	*relViews = append(*relViews, vi)
	relNames[strings.ToLower(vd.Name)] = true
	key.WriteByte(0)
	key.WriteString(strings.ToLower(vd.Name))
	return nil
}

// noteIndex resolves one index definition and, when its relation is
// relevant, records it for assembly and in the cache key.
func (w *WhatIf) noteIndex(d conf.IndexDef, fp *queryRelevance, relNames map[string]bool,
	relIx *[]*plan.IndexInfo, key *strings.Builder) error {
	ix, name, err := w.resolveIndex(d)
	if err != nil {
		return err
	}
	rel := strings.ToLower(d.Table)
	if !fp.tables[rel] && !relNames[rel] {
		return nil
	}
	*relIx = append(*relIx, ix)
	key.WriteByte(1)
	key.WriteString(name)
	return nil
}

// viewNamed reports whether the slice holds a view of the given name.
func viewNamed(views []conf.ViewDef, name string) bool {
	for _, v := range views {
		if strings.EqualFold(v.Name, name) {
			return true
		}
	}
	return false
}

// indexDefined reports whether the slice holds an equal index definition.
func indexDefined(ixs []conf.IndexDef, d conf.IndexDef) bool {
	for _, e := range ixs {
		if e.Equal(d) {
			return true
		}
	}
	return false
}

// combineConfig materializes base+delta with applyTo's deduplication
// (the uncached path of EstimateWith).
func combineConfig(base, delta conf.Configuration) conf.Configuration {
	out := base.Clone()
	for _, v := range delta.Views {
		if !out.HasView(v.Name) {
			out.Views = append(out.Views, v)
		}
	}
	for _, d := range delta.Indexes {
		out.AddIndex(d)
	}
	return out
}

// resolveView returns the actual or derived description of a view,
// memoized per snapshot under its lower-case name.
func (w *WhatIf) resolveView(vd conf.ViewDef) (*plan.ViewInfo, error) {
	key := strings.ToLower(vd.Name)
	if v, ok := w.resView[key]; ok {
		return v, nil
	}
	v := w.pinned.findView(vd.Name)
	if v == nil {
		var err error
		v, err = w.hypoViewLocked(vd)
		if err != nil {
			return nil, err
		}
	}
	w.resView[key] = v
	return v, nil
}

// resolveIndex returns the actual or derived description of an index
// and its definition name (the index's cache-key component), memoized
// per snapshot. Entries are interned in small buckets and matched by
// Equal — equal definitions share one description and one name, so the
// allocation-heavy Name construction happens once per definition.
func (w *WhatIf) resolveIndex(d conf.IndexDef) (*plan.IndexInfo, string, error) {
	rel := keyOf(d)
	for _, r := range w.resIndex[rel] {
		if r.def.Equal(d) {
			return r.ix, r.name, nil
		}
	}
	ix := w.pinned.findIndex(d)
	if ix == nil {
		var err error
		ix, err = w.hypoIndexLocked(d)
		if err != nil {
			return nil, "", err
		}
	}
	r := resolvedIndex{def: d, name: d.Name(), ix: ix}
	w.resIndex[rel] = append(w.resIndex[rel], r)
	return ix, r.name, nil
}

// EstimateSize returns the estimated full-scale bytes of the
// configuration's indexes and views beyond the base data — the measure
// the storage budget constrains (paper §2.2: ET uses storage).
func (w *WhatIf) EstimateSize(hypo conf.Configuration) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pinLocked()
	var total int64
	for _, vd := range hypo.Views {
		vi, err := w.hypoViewLocked(vd)
		if err != nil {
			continue
		}
		total += int64(float64(vi.Stats.Pages*cost.PageSize) / w.e.ScaleFactor)
	}
	for _, d := range hypo.Indexes {
		if d.Auto {
			continue // primary-key indexes belong to every configuration
		}
		ix, err := w.hypoIndexLocked(d)
		if err != nil {
			continue
		}
		total += ix.Bytes
	}
	return total
}

// physical assembles a hypothetical physical design from scratch — the
// uncached estimation path.
func (w *WhatIf) physical(hypo conf.Configuration) (*plan.Physical, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.pinLocked()
	phys := w.e.livePhysical(s) // a copy: the snapshot's own is shared
	phys.Indexes = make(map[string][]*plan.IndexInfo)
	phys.Views = make([]*plan.ViewInfo, 0, len(hypo.Views))

	for _, vd := range hypo.Views {
		vi := s.findView(vd.Name)
		if vi == nil {
			var err error
			if vi, err = w.hypoViewLocked(vd); err != nil {
				return nil, err
			}
		}
		phys.Views = append(phys.Views, vi)
	}
	for _, d := range hypo.Indexes {
		ix := s.findIndex(d)
		if ix == nil {
			var err error
			if ix, err = w.hypoIndexLocked(d); err != nil {
				return nil, err
			}
		}
		key := strings.ToLower(d.Table)
		phys.Indexes[key] = append(phys.Indexes[key], ix)
	}
	return phys, nil
}

// hypoIndexLocked derives (and caches) a hypothetical index description
// from the statistics of the pinned snapshot. The caller holds w.mu.
func (w *WhatIf) hypoIndexLocked(d conf.IndexDef) (*plan.IndexInfo, error) {
	key := d.Name()
	if ix, ok := w.indexCache[key]; ok {
		return ix, nil
	}
	var tab *catalog.Table
	var ts *stats.TableStats
	if t := w.e.Schema.Table(d.Table); t != nil {
		tab = t
		ts = w.pinned.stats(d.Table)
	} else if v, ok := w.viewCache[strings.ToLower(d.Table)]; ok {
		tab, ts = v.Table, v.Stats
	} else if v := w.pinned.findView(d.Table); v != nil {
		tab, ts = v.Table, v.Stats
	}
	if tab == nil || ts == nil {
		return nil, fmt.Errorf("engine: what-if index on unknown relation %s", d.Table)
	}
	cols := make([]int, len(d.Columns))
	entryWidth := 8 // rid
	for i, cn := range d.Columns {
		ci := tab.ColumnIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("engine: what-if index: no column %s in %s", cn, d.Table)
		}
		cols[i] = ci
		if tab.Columns[ci].Type == catalog.TypeString {
			aw := tab.Columns[ci].AvgWidth
			if aw == 0 {
				aw = 16
			}
			entryWidth += 2 + aw
		} else {
			entryWidth += 8
		}
	}
	ndv := make([]int64, len(cols))
	for i := range cols {
		ndv[i] = ts.CompositeNDV(cols[:i+1])
	}
	rows := ts.Rows
	fill := int64(cost.PageSize) * 70 / 100
	leafPages := (rows*int64(entryWidth) + fill - 1) / fill
	if leafPages < 1 {
		leafPages = 1
	}
	height := 1
	for p := leafPages; p > 1; p = (p + 63) / 64 {
		height++
	}
	epl := fill / int64(entryWidth)
	if epl < 1 {
		epl = 1
	}
	ix := &plan.IndexInfo{
		Def:          d,
		Cols:         cols,
		Hypothetical: true,
		KeyNDV:       ndv,
		// Bytes is a full-scale figure (the budget's unit); the page and
		// height fields stay in the scaled domain the cost meter uses.
		Bytes:          int64(float64((leafPages+leafPages/64+1)*cost.PageSize) / w.e.ScaleFactor),
		Height:         height,
		LeafPages:      leafPages,
		EntriesPerLeaf: epl,
	}
	w.indexCache[key] = ix
	return ix, nil
}

// hypoViewLocked derives (and caches) a hypothetical materialized view
// description: the defining query is analyzed, its cardinality estimated
// with the join formula, and column statistics are borrowed from the base
// tables. The caller holds w.mu.
func (w *WhatIf) hypoViewLocked(vd conf.ViewDef) (*plan.ViewInfo, error) {
	key := strings.ToLower(vd.Name)
	if v, ok := w.viewCache[key]; ok {
		return v, nil
	}
	q, err := w.e.AnalyzeSQL(vd.SQL)
	if err != nil {
		return nil, err
	}

	// Estimated cardinality: product of table rows over join-key NDVs.
	// Multiple predicates between the same table pair are usually
	// correlated (composite foreign keys), so predicates after the first
	// divide by the square root of their NDV only.
	rows := 1.0
	for _, t := range q.Tables {
		ts := w.pinned.stats(t.Table.Name)
		if ts == nil {
			return nil, fmt.Errorf("engine: no stats for %s", t.Table.Name)
		}
		rows *= float64(ts.Rows)
	}
	pairSeen := make(map[[2]int]bool)
	for _, j := range q.Joins {
		lts := w.pinned.stats(q.Tables[j.L.Tab].Table.Name)
		rts := w.pinned.stats(q.Tables[j.R.Tab].Table.Name)
		ndv := math.Max(float64(lts.Cols[j.L.Col].NDV), float64(rts.Cols[j.R.Col].NDV))
		pair := [2]int{j.L.Tab, j.R.Tab}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if pairSeen[pair] {
			ndv = math.Sqrt(ndv)
		}
		pairSeen[pair] = true
		if ndv > 1 {
			rows /= ndv
		}
	}
	if rows < 1 {
		rows = 1
	}

	cols := make([]catalog.Column, len(q.Out))
	outSrc := make([]sql.QCol, len(q.Out))
	cstats := make([]stats.ColumnStats, len(q.Out))
	width := 4
	for i, o := range q.Out {
		src := q.Tables[o.Col.Tab].Table.Columns[o.Col.Col]
		cols[i] = catalog.Column{
			Name: "c" + strconv.Itoa(i), Type: src.Type, Domain: src.Domain,
			Indexable: src.Indexable, AvgWidth: src.AvgWidth,
		}
		outSrc[i] = o.Col
		srcStats := w.pinned.stats(q.Tables[o.Col.Tab].Table.Name)
		cstats[i] = srcStats.Cols[o.Col.Col]
		if cstats[i].NDV > int64(rows) {
			cstats[i].NDV = int64(rows)
		}
		if src.Type == catalog.TypeString {
			aw := src.AvgWidth
			if aw == 0 {
				aw = 16
			}
			width += 2 + aw
		} else {
			width += 8
		}
	}
	vt, err := catalog.NewTable(vd.Name, cols, nil)
	if err != nil {
		return nil, err
	}
	vi := &plan.ViewInfo{
		Def:   vd,
		Query: q,
		Table: vt,
		Stats: &stats.TableStats{
			Rows:  int64(rows),
			Pages: cost.PagesForBytes(int64(rows) * int64(width)),
			Cols:  cstats,
		},
		OutSrc: outSrc,
	}
	w.viewCache[key] = vi
	return vi, nil
}
