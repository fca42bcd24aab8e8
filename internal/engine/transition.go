package engine

import (
	"math"
	"strings"

	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/plan"
)

// Transition switches the engine from its current configuration Ci to the
// target Cj incrementally: structures present in both survive, removed
// ones are dropped, and only new ones are built. The returned report's
// BuildSeconds is the paper's AT(Ci, Cj) — the actual cost of changing the
// system configuration (§2.2) — which is much smaller than rebuilding Cj
// from scratch when the configurations overlap. On error the previous
// configuration keeps serving.
func (e *Engine) Transition(target conf.Configuration) (BuildReport, error) {
	var rep BuildReport
	err := e.mutate(func(next *snapshot) (err error) {
		rep, err = e.transition(next, target)
		return err
	})
	return rep, err
}

func (e *Engine) transition(next *snapshot, target conf.Configuration) (BuildReport, error) {
	next.collectStats(false)
	phys := next.phys
	var meter, viewMeter cost.Meter
	var nBuilt, nKept, nDropped int

	// Views: keep unchanged definitions, build new ones. Drops cost one
	// page write (catalog update; deallocation is lazy).
	oldViews := phys.Views
	phys.Views = nil
	for _, vd := range target.Views {
		var kept *plan.ViewInfo
		for _, v := range oldViews {
			if strings.EqualFold(v.Def.Name, vd.Name) && v.Def.SQL == vd.SQL {
				kept = v
				break
			}
		}
		if kept != nil {
			phys.Views = append(phys.Views, kept)
			nKept++
			continue
		}
		vi, m, err := e.buildView(next, vd)
		if err != nil {
			return BuildReport{}, err
		}
		meter.Add(m)
		viewMeter.Add(m)
		phys.Views = append(phys.Views, vi)
		nBuilt++
	}
	for _, v := range oldViews {
		if !target.HasView(v.Def.Name) {
			meter.FixedSeq++ // catalog update for the drop
			viewMeter.FixedSeq++
			nDropped++
		}
	}

	// Indexes: keep matching definitions (on still-existing relations),
	// build the rest.
	oldIndexes := phys.Indexes
	phys.Indexes = make(map[string][]*plan.IndexInfo)
	var extraBytes int64
	for _, d := range target.Indexes {
		key := strings.ToLower(d.Table)
		var kept *plan.IndexInfo
		for _, ix := range oldIndexes[key] {
			if ix.Def.Equal(d) {
				kept = ix
				break
			}
		}
		// An index on a rebuilt view must itself be rebuilt.
		if kept != nil && e.Schema.Table(d.Table) == nil {
			if v := next.findView(d.Table); v == nil || v.Heap == nil {
				kept = nil
			}
		}
		if kept != nil {
			phys.Indexes[key] = append(phys.Indexes[key], kept)
			extraBytes += kept.Bytes
			nKept++
			continue
		}
		ix, m, err := e.buildIndex(next, d)
		if err != nil {
			return BuildReport{}, err
		}
		meter.Add(m)
		phys.Indexes[key] = append(phys.Indexes[key], ix)
		extraBytes += ix.Bytes
		nBuilt++
	}
	dropped := 0
	for key, list := range oldIndexes {
		for _, ix := range list {
			found := false
			for _, cur := range phys.Indexes[key] {
				if cur == ix {
					found = true
					break
				}
			}
			if !found {
				dropped++
			}
		}
	}
	meter.FixedSeq += int64(dropped)
	nDropped += dropped
	for _, list := range phys.Indexes {
		plan.SortIndexes(list)
	}

	next.config = target.Clone()
	for _, v := range phys.Views {
		extraBytes += int64(float64(v.Heap.Bytes()) / e.ScaleFactor)
	}
	return BuildReport{
		Config:       next.config,
		IndexBytes:   extraBytes,
		Bytes:        e.baseBytes(next) + extraBytes,
		BuildSeconds: e.Model.Seconds(&meter),
		ViewSeconds:  e.Model.Seconds(&viewMeter),
		Built:        nBuilt,
		Kept:         nKept,
		Dropped:      nDropped,
	}, nil
}

// EstimateTransition returns ET(Ci, Cj) as simulated seconds: the
// estimated time to build the target configuration's structures that the
// current configuration lacks, priced from statistics without building
// anything (one relation scan, a sort, and a sequential leaf write per
// new index; the defining query's estimated cost plus the result write
// per new view).
func (w *WhatIf) EstimateTransition(target conf.Configuration) (float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.pinLocked()
	var meter cost.Meter
	for _, vd := range target.Views {
		if s.findView(vd.Name) != nil {
			continue
		}
		vi, err := w.hypoViewLocked(vd)
		if err != nil {
			return 0, err
		}
		// Build = scan the base tables, join, write the result.
		for _, t := range vi.Query.Tables {
			if info := s.stats(t.Table.Name); info != nil {
				meter.SeqPages += info.Pages
				meter.Rows += info.Rows
			}
		}
		meter.WritePage += vi.Stats.Pages
	}
	for _, d := range target.Indexes {
		if s.findIndex(d) != nil {
			continue
		}
		ix, err := w.hypoIndexLocked(d)
		if err != nil {
			return 0, err
		}
		var rows, pages int64
		if ts := s.stats(d.Table); ts != nil {
			rows, pages = ts.Rows, ts.Pages
		} else if vi := w.viewCache[strings.ToLower(d.Table)]; vi != nil {
			rows, pages = vi.Stats.Rows, vi.Stats.Pages
		}
		meter.SeqPages += pages
		meter.WritePage += ix.LeafPages
		if rows > 1 {
			meter.CPUOps += int64(float64(rows) * math.Log2(float64(rows)))
		}
	}
	return w.e.Model.Seconds(&meter), nil
}
