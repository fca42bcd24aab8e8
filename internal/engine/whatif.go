package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/btree"
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
//     definition, and the intern tables give each distinct structure one
//     entry — a session-unique id, the integer id of its relation and
//     its actual-or-derived description — so a search evaluating
//     hundreds of candidates pays each derivation and catalog lookup
//     once;
//   - a configuration is resolved once (Resolve) into a handle of
//     entries, and a search's base and each of its candidate deltas are
//     such handles: an estimate against them touches no definition and
//     no name. A base handle remembers per query which of its entries
//     are relevant, and keeps those records when it is re-resolved in
//     place (Reset) to the next configuration;
//   - estimates themselves are cached under a relevance key: the query's
//     id plus the ids of only the structures on relations the query can
//     touch, tested on integer relation ids, so candidate configurations
//     differing in irrelevant structures share one optimizer invocation.
//
// The session pins the engine snapshot its caches were derived from and
// flushes them when the engine has published another (ApplyConfig,
// Transition, Load, InsertRows, CollectStats, NoteTopologyChange), so a
// session may outlive configuration changes — the retune loop
// (recommender.Loop) keeps one across retunes. Its per-query state is
// one fingerprint per analyzed query under the pinned snapshot, over the
// engine's one analysis of each text (AnalyzeSQL): a session that is
// given the same texts again holds no more than the distinct texts, and
// one that never sees another snapshot flushes its fingerprints and
// estimates when they outgrow the memo of analyzed queries.
//
// A session has one owner, as AutoAdmin's what-if interface has one
// tuning tool driving it: it is not safe for concurrent use, and a
// caller that estimates on several goroutines opens a session for each.
// The engine is safe to read beside it — no estimation entry point takes
// an engine lock — and the descriptions a session hands the optimizer
// are immutable once derived.
type WhatIf struct {
	e *Engine
	// caching is fixed at session creation from the engine's
	// DisableWhatIfCache.
	caching bool

	pinned *snapshot // the engine snapshot the caches belong to

	indexCache map[string]*plan.IndexInfo
	viewCache  map[string]*plan.ViewInfo
	ixEntries  map[ixKey][]*ixEntry           // interned, bucketed by ixKey
	viewByName map[string]*viewEntry          // interned, by lower name
	relIDs     map[string]uint32              // relation ids, by lower name
	queries    map[*sql.Query]*queryRelevance // flushed with the estimates
	estimates  map[string]estEntry
	lastID     uint32      // ids are never reused
	key        []byte      // the probe key, rebuilt per estimate
	orphaned   []*ixEntry  // estimate's base indexes when a delta view adopts an orphan
	miss       missScratch // a miss's material, reset after each
	scratch    Resolved    // Estimate's one-shot base
	scratchRel relevance   // scratch's relevant subset
}

// queryRelevance is a query's fingerprint in the session: the id its
// estimate keys start with, its canonical text, and the relation ids of
// its relevant tables.
type queryRelevance struct {
	id     uint32
	sql    string
	tables relSet
}

// relSet is a set of relation ids, one bit each.
type relSet []uint64

func (s relSet) has(id uint32) bool {
	i := int(id / 64)
	return i < len(s) && s[i]&(1<<(id%64)) != 0
}

func (s relSet) with(id uint32) relSet {
	for int(id/64) >= len(s) {
		s = append(s, 0)
	}
	s[id/64] |= 1 << (id % 64)
	return s
}

// covers reports whether every defining table of the view is one of the
// query's relevant tables — view matching requires an unambiguous mapping
// of all defining tables into the query, so an uncovered view can never
// produce a candidate.
func (fp *queryRelevance) covers(v *viewEntry) bool {
	for _, t := range v.tables {
		if !fp.tables.has(t) {
			return false
		}
	}
	return true
}

// estEntry is one cached estimation result.
type estEntry struct {
	seconds float64
	meter   cost.Meter
}

// viewEntry is one interned view: its id, the relation id of its name,
// the relation ids of its defining tables and its actual-or-derived
// description. Views are interned by name (first definition wins),
// matching the derivation cache.
type viewEntry struct {
	id     uint32
	rel    uint32
	tables []uint32
	vi     *plan.ViewInfo
}

// ixEntry is one interned index: its id, its relation's id and lower-case
// name, and its actual-or-derived description. Equal definitions share
// one entry.
type ixEntry struct {
	id   uint32
	rel  uint32
	name string
	ix   *plan.IndexInfo
}

// ixKey buckets interned indexes. Equal definitions always land in the
// same bucket, and the bucket scan stays short even under System A's
// permutation generator, which produces hundreds of distinct defs per
// table but spreads them across first columns.
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

// Resolved is a configuration resolved once by a session: a search's base
// configuration, or one candidate's delta over it, for repeated
// estimation through EstimateWith. A search resolves its base and each
// candidate once and pays per trial for no definition at all. A handle
// stays valid across engine changes — one whose snapshot the session has
// left is re-resolved from its configuration on next use — but only with
// the session that made it, and it has that session's owner.
type Resolved struct {
	w    *WhatIf
	conf conf.Configuration

	snap    *snapshot // the snapshot the entries were resolved under
	gen     uint32    // counts resolutions; a relevance record names the one it was computed under
	views   []*viewEntry
	indexes []*ixEntry
	memo    map[uint32]*relevance // by query id, made on first use; never on the session's scratch
}

// relevance is the subset of a resolved base that can influence one
// query's plan (see estimate for the rule), in configuration order,
// computed under the base's resolution gen.
type relevance struct {
	gen     uint32
	views   []*viewEntry
	indexes []*ixEntry
	// orphans are the base's indexes on a relation that is neither a
	// query table nor a view of the base: a delta view of that name makes
	// one relevant.
	orphans []*ixEntry
}

var errForeignHandle = errors.New("engine: what-if: resolved configuration belongs to another session")

// NewWhatIf opens a what-if session against the current configuration.
func (e *Engine) NewWhatIf() *WhatIf {
	return &WhatIf{e: e, caching: !e.DisableWhatIfCache}
}

// Engine returns the engine the session estimates against.
func (w *WhatIf) Engine() *Engine { return w.e }

// pin returns the engine's published snapshot, first flushing the
// derivation, intern and estimate caches, the relation ids and the query
// fingerprints if they were filled under another one (invalidation on
// RUNSTATS, transitions and loads). The fingerprints go with the
// estimates: every key that names their ids is flushed, and a query
// asked about again gets a new id from the engine's analysis of it.
func (w *WhatIf) pin() *snapshot {
	if s := w.e.snap(); w.pinned != s {
		w.pinned = s
		w.indexCache = make(map[string]*plan.IndexInfo)
		w.viewCache = make(map[string]*plan.ViewInfo)
		w.ixEntries = make(map[ixKey][]*ixEntry)
		w.viewByName = make(map[string]*viewEntry)
		w.relIDs = make(map[string]uint32)
		w.flushQueries()
	}
	return w.pinned
}

// flushQueries drops the query fingerprints and the estimates keyed on
// their ids.
func (w *WhatIf) flushQueries() {
	w.queries = make(map[*sql.Query]*queryRelevance)
	w.estimates = make(map[string]estEntry)
}

// Resolve resolves every definition of the configuration once, so that
// derivation errors surface here, and returns the handle EstimateWith
// takes as a base or as a delta. The handle keeps the configuration's
// definitions, not a deep copy of them (see Reset).
func (w *WhatIf) Resolve(c conf.Configuration) (*Resolved, error) {
	r := &Resolved{w: w}
	if err := r.Reset(c); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset re-resolves the handle in place to the configuration c. It keeps
// its arrays and its per-query relevance records, which go stale and are
// recomputed into their own arrays on next use, so a search that moves
// one handle from configuration to configuration — greedy's round base,
// the solo pass's trial delta — allocates nothing per query for it once
// warm. The handle copies c's definitions but shares their column and
// table lists, which must not be written while it is in use.
func (r *Resolved) Reset(c conf.Configuration) error {
	r.conf.Name = c.Name
	r.conf.Indexes = append(r.conf.Indexes[:0], c.Indexes...)
	r.conf.Views = append(r.conf.Views[:0], c.Views...)
	if !r.w.caching {
		return nil
	}
	r.w.pin()
	return r.w.resolve(r)
}

// Estimate returns H(q, Ch, Ca) for the hypothetical configuration.
func (w *WhatIf) Estimate(q *sql.Query, hypo conf.Configuration) (Measure, error) {
	whatifCalls.Add(1)
	if !w.caching {
		return w.estimateUncached(q, hypo)
	}
	// hypo is resolved afresh into the session's scratch handle, which
	// keeps no relevance memo.
	w.pin()
	w.scratch.conf = hypo
	if err := w.resolve(&w.scratch); err != nil {
		return Measure{}, err
	}
	return w.estimate(q, &w.scratch, nil)
}

// EstimateWith returns H(q, base+delta, Ca) without materializing the
// combined configuration — the path the search's trials take: the base
// and the delta (nil for none) are handles this session resolved, and a
// cache hit is one key built from their integer ids and one map probe.
// The result is identical to Estimate against candidate.applyTo(base):
// delta views whose name base already holds and delta indexes base
// already defines are skipped, mirroring Configuration.HasView/AddIndex
// deduplication.
func (w *WhatIf) EstimateWith(q *sql.Query, base, delta *Resolved) (Measure, error) {
	whatifCalls.Add(1)
	if base.w != w || delta != nil && delta.w != w {
		return Measure{}, errForeignHandle
	}
	if !w.caching {
		c := base.conf
		if delta != nil {
			c = combineConfig(base.conf, delta.conf)
		}
		return w.estimateUncached(q, c)
	}
	return w.estimate(q, base, delta)
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

// estimate is the relevance-keyed fast path over a resolved base and an
// optional resolved delta. It pins the engine snapshot, brings both
// handles up to it, builds the relevance key and probes the estimate
// cache. A delta entry the base or an earlier delta entry already holds
// is dropped — interned entries make that a pointer comparison. Of the
// rest, only the relevant enter the key:
//
//   - a view is relevant iff it is covered by the query's relevant tables;
//   - an index is relevant iff its relation is a relevant table or a
//     relevant view — the optimizer consults IndexesOn only for FROM
//     tables, IN-subquery tables and matched views.
//
// Both tests compare relation ids. The key is the query id, then the
// relevant view ids (base, then delta), then the relevant index ids
// (base, then delta): the order the views and indexes of
// candidate.applyTo(base) have, so a greedy round's trial (cur, X) and
// the next round's (cur+X, ∅) share one entry. phys.Views order decides
// equal-cost ties, so it is part of the key by construction. Two
// candidate configurations that agree on the relevant subset share one
// cache entry and one optimizer invocation.
//
// On a miss the candidate physical is assembled in the session's miss
// scratch — the pinned snapshot supplies the tables; only the relevant
// structures are attached — and estimated, so a miss allocates only its
// cache key and entry.
func (w *WhatIf) estimate(q *sql.Query, base, delta *Resolved) (Measure, error) {
	snap := w.pin()
	for _, r := range [2]*Resolved{base, delta} {
		if r != nil && r.snap != snap {
			if err := w.resolve(r); err != nil {
				return Measure{}, err
			}
		}
	}
	fp := w.fingerprint(q)
	rel := w.relevant(base, fp)

	// Delta views, then delta indexes: keep the relevant that neither the
	// base nor an earlier delta entry holds. Deltas are a candidate's one
	// or two structures, so the fixed arrays keep them off the heap.
	var dvBuf [4]*viewEntry
	var diBuf [4]*ixEntry
	dv, di := dvBuf[:0], diBuf[:0]
	relevant := func(x *ixEntry) bool {
		return fp.tables.has(x.rel) || named(rel.views, x.rel) || named(dv, x.rel)
	}
	if delta != nil {
		for _, v := range delta.views {
			if fp.covers(v) && !slices.Contains(base.views, v) && !slices.Contains(dv, v) {
				dv = append(dv, v)
			}
		}
		for _, x := range delta.indexes {
			if relevant(x) && !slices.Contains(base.indexes, x) && !slices.Contains(di, x) {
				di = append(di, x)
			}
		}
	}
	baseIx := rel.indexes
	for _, x := range rel.orphans {
		if named(dv, x.rel) {
			w.orphaned = w.orphaned[:0]
			for _, x := range base.indexes {
				if relevant(x) {
					w.orphaned = append(w.orphaned, x)
				}
			}
			baseIx = w.orphaned
			break
		}
	}

	key := binary.LittleEndian.AppendUint32(w.key[:0], fp.id)
	for _, vs := range [2][]*viewEntry{rel.views, dv} {
		for _, v := range vs {
			key = binary.LittleEndian.AppendUint32(key, v.id)
		}
	}
	for _, xs := range [2][]*ixEntry{baseIx, di} {
		for _, x := range xs {
			key = binary.LittleEndian.AppendUint32(key, x.id)
		}
	}
	w.key = key
	if ent, ok := w.estimates[string(key)]; ok {
		whatifHits.Add(1)
		return Measure{SQL: fp.sql, Seconds: ent.seconds, Meter: ent.meter}, nil
	}

	m := &w.miss
	for _, vs := range [2][]*viewEntry{rel.views, dv} {
		for _, v := range vs {
			m.phys.Views = append(m.phys.Views, v.vi)
		}
	}
	m.indexes = append(append(m.indexes, baseIx...), di...)
	est, err := optimizer.Estimate(m.physical(w.e, snap), q, w.e.Profile.Opts)
	m.reset()
	if err != nil {
		return Measure{}, err
	}
	w.estimates[string(key)] = estEntry{seconds: est.Seconds, meter: est.Meter}
	return Measure{SQL: fp.sql, Seconds: est.Seconds, Meter: est.Meter}, nil
}

// missScratch is the material of one miss: the relevant indexes, and the
// physical description assembled from them and the relevant views, which
// estimate puts in phys.Views. Between misses it is emptied of every
// description and snapshot it referenced, and keeps its arrays and map.
type missScratch struct {
	indexes []*ixEntry
	phys    plan.Physical
	// rels[i] is the lower-case name of a relation the indexes are on,
	// lists[i] its indexes.
	rels  []string
	lists [][]*plan.IndexInfo
}

// physical completes the description: the snapshot's tables, and the
// indexes, each relation's list name-sorted once so the optimizer's
// sortedIndexes takes its no-copy path.
func (m *missScratch) physical(e *Engine, snap *snapshot) *plan.Physical {
	for _, x := range m.indexes {
		i := slices.Index(m.rels, x.name)
		if i < 0 {
			i = len(m.rels)
			m.rels = append(m.rels, x.name)
			if len(m.lists) == i {
				m.lists = append(m.lists, nil)
			}
		}
		m.lists[i] = append(m.lists[i], x.ix)
	}
	if m.phys.Indexes == nil {
		m.phys.Indexes = make(map[string][]*plan.IndexInfo)
	}
	for i, rel := range m.rels {
		plan.SortIndexes(m.lists[i])
		m.phys.Indexes[rel] = m.lists[i]
	}
	m.phys.Schema, m.phys.Tables = e.Schema, snap.phys.Tables
	m.phys.Mem, m.phys.Model = memBytes, e.Model
	return &m.phys
}

// reset empties the scratch for its next miss, keeping its arrays.
func (m *missScratch) reset() {
	clear(m.indexes)
	for i := range m.rels {
		clear(m.lists[i])
		m.lists[i] = m.lists[i][:0]
	}
	clear(m.rels)
	m.indexes, m.rels = m.indexes[:0], m.rels[:0]
	clear(m.phys.Views)
	clear(m.phys.Indexes)
	m.phys = plan.Physical{Views: m.phys.Views[:0], Indexes: m.phys.Indexes}
}

// named reports whether one of the views is the relation rel.
func named(views []*viewEntry, rel uint32) bool {
	for _, v := range views {
		if v.rel == rel {
			return true
		}
	}
	return false
}

// resolve (re)interns every definition of the handle's configuration
// under the pinned snapshot. Its relevance records go stale; under a new
// snapshot they are dropped, since the query ids they are keyed by were
// flushed with the old one.
func (w *WhatIf) resolve(r *Resolved) error {
	if r.snap != w.pinned {
		clear(r.memo)
	}
	r.snap = nil
	r.gen++
	r.views, r.indexes = r.views[:0], r.indexes[:0]
	for _, vd := range r.conf.Views {
		v, err := w.internView(vd)
		if err != nil {
			return err
		}
		r.views = append(r.views, v)
	}
	for _, d := range r.conf.Indexes {
		x, err := w.internIndex(d)
		if err != nil {
			return err
		}
		r.indexes = append(r.indexes, x)
	}
	r.snap = w.pinned
	return nil
}

// relevant returns the subset of the resolved base relevant to the
// query: the handle's record for the query, recomputed in place when the
// handle has been re-resolved since. The session's scratch handle keeps
// no records: its subset is rebuilt in scratchRel on every call.
func (w *WhatIf) relevant(r *Resolved, fp *queryRelevance) *relevance {
	m := &w.scratchRel
	if r != &w.scratch {
		if m = r.memo[fp.id]; m == nil {
			if r.memo == nil {
				r.memo = make(map[uint32]*relevance)
			}
			m = new(relevance)
			r.memo[fp.id] = m
		} else if m.gen == r.gen {
			return m
		}
	}
	m.gen = r.gen
	m.views, m.indexes, m.orphans = m.views[:0], m.indexes[:0], m.orphans[:0]
	for _, v := range r.views {
		if fp.covers(v) {
			m.views = append(m.views, v)
		}
	}
	for _, x := range r.indexes {
		switch {
		case fp.tables.has(x.rel) || named(m.views, x.rel):
			m.indexes = append(m.indexes, x)
		case !named(r.views, x.rel):
			m.orphans = append(m.orphans, x)
		}
	}
	return m
}

// fingerprint returns the query's fingerprint, adding one on first sight
// under the pinned snapshot. Its analysis is the engine's memoized one,
// so the queries AnalyzeSQL hands out for one text share one fingerprint
// and one id — a search over the same texts again (the warm pass) hits
// the entries of an earlier one — and only a query analyzed elsewhere,
// or evicted from the memo since, is fingerprinted here. A session that
// has fingerprinted as many queries as the memo holds texts starts over:
// it is being given ever new queries under one snapshot.
func (w *WhatIf) fingerprint(q *sql.Query) *queryRelevance {
	if fp, ok := w.queries[q]; ok {
		return fp
	}
	a := w.e.analyses.of(q)
	if a == nil {
		a = newAnalyzed("", q)
	}
	if len(w.queries) >= analyzedCap {
		w.flushQueries()
	}
	fp := &queryRelevance{id: w.nextID(), sql: a.sql}
	for _, t := range a.tables {
		fp.tables = fp.tables.with(w.relID(t))
	}
	w.queries[q] = fp
	return fp
}

// relID returns the session's id for a lower-case relation name, handing
// out the next on first sight. Relation ids are small and dense, so a
// query's relevant tables are a bitset (relSet).
func (w *WhatIf) relID(name string) uint32 {
	id, ok := w.relIDs[name]
	if !ok {
		id = uint32(len(w.relIDs))
		w.relIDs[name] = id
	}
	return id
}

// nextID hands out a session-unique id; queries, views and indexes draw
// from one sequence, so an id names one kind of thing.
func (w *WhatIf) nextID() uint32 {
	w.lastID++
	return w.lastID
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

// internView returns the view's entry under the pinned snapshot,
// resolving its actual or derived description on first sight.
func (w *WhatIf) internView(vd conf.ViewDef) (*viewEntry, error) {
	name := strings.ToLower(vd.Name)
	if v, ok := w.viewByName[name]; ok {
		return v, nil
	}
	vi := w.pinned.findView(vd.Name)
	if vi == nil {
		var err error
		if vi, err = w.hypoView(vd); err != nil {
			return nil, err
		}
	}
	v := &viewEntry{id: w.nextID(), rel: w.relID(name), vi: vi, tables: make([]uint32, len(vi.Query.Tables))}
	for i, t := range vi.Query.Tables {
		v.tables[i] = w.relID(strings.ToLower(t.Table.Name))
	}
	w.viewByName[name] = v
	return v, nil
}

// internIndex returns the index's entry under the pinned snapshot,
// resolving its actual or derived description on first sight; equal
// definitions share one entry.
func (w *WhatIf) internIndex(d conf.IndexDef) (*ixEntry, error) {
	k := keyOf(d)
	for _, x := range w.ixEntries[k] {
		if x.ix.Def.Equal(d) {
			return x, nil
		}
	}
	ix := w.pinned.findIndex(d)
	if ix == nil {
		var err error
		if ix, err = w.hypoIndex(d); err != nil {
			return nil, err
		}
	}
	x := &ixEntry{id: w.nextID(), rel: w.relID(k.table), name: k.table, ix: ix}
	w.ixEntries[k] = append(w.ixEntries[k], x)
	return x, nil
}

// EstimateSize returns the estimated full-scale bytes of the
// configuration's indexes and views beyond the base data — the measure
// the storage budget constrains (paper §2.2: ET uses storage).
func (w *WhatIf) EstimateSize(hypo conf.Configuration) int64 {
	w.pin()
	var total int64
	for _, vd := range hypo.Views {
		vi, err := w.hypoView(vd)
		if err != nil {
			continue
		}
		total += int64(float64(vi.Stats.Pages*cost.PageSize) / w.e.ScaleFactor)
	}
	for _, d := range hypo.Indexes {
		if d.Auto {
			continue // primary-key indexes belong to every configuration
		}
		ix, err := w.hypoIndex(d)
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
	s := w.pin()
	phys := w.e.livePhysical(s) // a copy: the snapshot's own is shared
	phys.Indexes = make(map[string][]*plan.IndexInfo)
	phys.Views = make([]*plan.ViewInfo, 0, len(hypo.Views))

	for _, vd := range hypo.Views {
		vi := s.findView(vd.Name)
		if vi == nil {
			var err error
			if vi, err = w.hypoView(vd); err != nil {
				return nil, err
			}
		}
		phys.Views = append(phys.Views, vi)
	}
	for _, d := range hypo.Indexes {
		ix := s.findIndex(d)
		if ix == nil {
			var err error
			if ix, err = w.hypoIndex(d); err != nil {
				return nil, err
			}
		}
		key := strings.ToLower(d.Table)
		phys.Indexes[key] = append(phys.Indexes[key], ix)
	}
	return phys, nil
}

// hypoIndex derives (and caches) a hypothetical index description
// from the statistics of the pinned snapshot.
func (w *WhatIf) hypoIndex(d conf.IndexDef) (*plan.IndexInfo, error) {
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
	entryWidth := int64(8) // rid
	for i, cn := range d.Columns {
		ci := tab.ColumnIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("engine: what-if index: no column %s in %s", cn, d.Table)
		}
		cols[i] = ci
		entryWidth += storedWidth(tab.Columns[ci])
	}
	ndv := make([]int64, len(cols))
	for i := range cols {
		ndv[i] = ts.CompositeNDV(cols[:i+1])
	}
	ix := &plan.IndexInfo{Def: d, Name: key, Cols: cols, Hypothetical: true, KeyNDV: ndv}
	sh := btree.Shape(ts.Rows, entryWidth)
	w.e.sizeIndex(ix, sh, sh.Height())
	w.indexCache[key] = ix
	return ix, nil
}

// hypoView derives (and caches) a hypothetical materialized view
// description: the defining query is analyzed, its cardinality estimated
// with the join formula, and column statistics are borrowed from the base
// tables.
func (w *WhatIf) hypoView(vd conf.ViewDef) (*plan.ViewInfo, error) {
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

	vt, outSrc, err := viewTable(vd.Name, q)
	if err != nil {
		return nil, err
	}
	cstats := make([]stats.ColumnStats, len(outSrc))
	width := int64(4) // row header
	for i, o := range outSrc {
		cstats[i] = w.pinned.stats(q.Tables[o.Tab].Table.Name).Cols[o.Col]
		if cstats[i].NDV > int64(rows) {
			cstats[i].NDV = int64(rows)
		}
		width += storedWidth(vt.Columns[i])
	}
	vi := &plan.ViewInfo{
		Def:   vd,
		Query: q,
		Table: vt,
		Stats: &stats.TableStats{
			Rows:  int64(rows),
			Pages: cost.PagesForBytes(int64(rows) * width),
			Cols:  cstats,
		},
		OutSrc: outSrc,
	}
	w.viewCache[key] = vi
	return vi, nil
}

// storedWidth is a column's modeled width as a what-if estimate stores
// it: catalog's width, plus a 2-byte length prefix for a string.
func storedWidth(c catalog.Column) int64 {
	if c.Type == catalog.TypeString {
		return int64(c.Width()) + 2
	}
	return int64(c.Width())
}
