package engine

import (
	"fmt"
	"strings"

	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/plan"
)

// change is a reconfiguration's keep/build/drop decision, from a snapshot
// to a target — the one rule Transition carries out, ApplyConfig reuses
// from an emptied snapshot and EstimateTransition prices, so AT(Ci, Cj)
// and ET(Ci, Cj) measure one set of builds (paper §2.2). A target view is
// kept when the snapshot holds one of the same name and SQL; a target
// index when the snapshot holds an Equal one on a base table or on a kept
// view (an index on a rebuilt view must cover the new view's rows).
// Everything else is built. A snapshot view is dropped when the target
// names no view like it — one it rebuilds under its name is a build only
// — and a snapshot index when no target index keeps it.
type change struct {
	// views and indexes parallel the target's definitions: the snapshot
	// structure each keeps, or nil where it is built.
	views                        []*plan.ViewInfo
	indexes                      []*plan.IndexInfo
	droppedViews, droppedIndexes int
}

func planChange(s *snapshot, target conf.Configuration) change {
	c := change{views: make([]*plan.ViewInfo, len(target.Views)), indexes: make([]*plan.IndexInfo, len(target.Indexes))}
	keptView := make(map[string]bool, len(target.Views)) // by lower name: the first view of a name is the relation
	for i, vd := range target.Views {
		for _, v := range s.phys.Views {
			if strings.EqualFold(v.Def.Name, vd.Name) && v.Def.SQL == vd.SQL {
				c.views[i] = v
				break
			}
		}
		if _, seen := keptView[strings.ToLower(vd.Name)]; !seen {
			keptView[strings.ToLower(vd.Name)] = c.views[i] != nil
		}
	}
	for _, v := range s.phys.Views {
		if !target.HasView(v.Def.Name) {
			c.droppedViews++
		}
	}
	kept := make(map[*plan.IndexInfo]bool, len(target.Indexes))
	for i, d := range target.Indexes {
		if ix := s.findIndex(d); ix != nil && (s.phys.Table(d.Table) != nil || keptView[strings.ToLower(d.Table)]) {
			c.indexes[i] = ix
			kept[ix] = true
		}
	}
	for _, list := range s.phys.Indexes {
		for _, ix := range list {
			if !kept[ix] {
				c.droppedIndexes++
			}
		}
	}
	return c
}

// Transition switches the engine from its current configuration Ci to the
// target Cj incrementally: structures present in both survive, removed
// ones are dropped, and only new ones are built (see change). The
// returned report's BuildSeconds is the paper's AT(Ci, Cj) — the actual
// cost of changing the system configuration (§2.2) — which is much
// smaller than rebuilding Cj from scratch when the configurations
// overlap. On error the previous configuration keeps serving.
func (e *Engine) Transition(target conf.Configuration) (BuildReport, error) {
	var rep BuildReport
	err := e.mutate(func(next *snapshot) (err error) {
		rep, err = e.transition(next, target)
		return err
	})
	return rep, err
}

// ApplyConfig builds configuration c from scratch: a Transition from a
// snapshot cleared of indexes and views, whose drops are counted but
// free. On error the previous configuration keeps serving.
func (e *Engine) ApplyConfig(c conf.Configuration) (BuildReport, error) {
	var rep BuildReport
	err := e.mutate(func(next *snapshot) (err error) {
		cleared := planChange(next, conf.Configuration{})
		next.phys.Views, next.phys.Indexes = nil, nil
		if rep, err = e.transition(next, c); err == nil {
			rep.Dropped = cleared.droppedViews + cleared.droppedIndexes
		}
		return err
	})
	return rep, err
}

// transition carries out the change from next to the target on next.
// A drop costs one page write (a catalog update; deallocation is lazy).
func (e *Engine) transition(next *snapshot, target conf.Configuration) (BuildReport, error) {
	next.collectStats(false)
	ch := planChange(next, target)
	phys := next.phys
	rep := BuildReport{Dropped: ch.droppedViews + ch.droppedIndexes}
	meter := cost.Meter{FixedSeq: int64(rep.Dropped)}
	viewMeter := cost.Meter{FixedSeq: int64(ch.droppedViews)}

	// Views first: an index on a view is built over the new view list.
	phys.Views = nil
	for i, vd := range target.Views {
		vi := ch.views[i]
		if vi == nil {
			var m cost.Meter
			var err error
			if vi, m, err = e.buildView(next, vd); err != nil {
				return BuildReport{}, fmt.Errorf("engine: building %s: %w", vd.Name, err)
			}
			meter.Add(m)
			viewMeter.Add(m)
			rep.Built++
		}
		phys.Views = append(phys.Views, vi)
		rep.IndexBytes += int64(float64(vi.Heap.Bytes()) / e.ScaleFactor)
	}
	phys.Indexes = make(map[string][]*plan.IndexInfo)
	for i, d := range target.Indexes {
		ix := ch.indexes[i]
		if ix == nil {
			var m cost.Meter
			var err error
			if ix, m, err = e.buildIndex(next, d); err != nil {
				return BuildReport{}, fmt.Errorf("engine: building %s: %w", d.Name(), err)
			}
			meter.Add(m)
			rep.Built++
		}
		key := strings.ToLower(d.Table)
		phys.Indexes[key] = append(phys.Indexes[key], ix)
		rep.IndexBytes += ix.Bytes
	}
	for _, list := range phys.Indexes {
		plan.SortIndexes(list)
	}

	next.config = target.Clone()
	rep.Config, rep.Kept = next.config, len(target.Views)+len(target.Indexes)-rep.Built
	rep.Bytes = e.baseBytes(next) + rep.IndexBytes
	rep.BuildSeconds, rep.ViewSeconds = e.Model.Seconds(&meter), e.Model.Seconds(&viewMeter)
	return rep, nil
}

// EstimateTransition returns ET(Ci, Cj) as simulated seconds: the
// estimated time of the builds the change from the current configuration
// to the target makes, priced from statistics without building anything
// (one relation scan, a sort, and a sequential leaf write per new index;
// a scan of the defining tables plus the result write per new view).
func (w *WhatIf) EstimateTransition(target conf.Configuration) (float64, error) {
	s := w.pin()
	ch := planChange(s, target)
	var meter cost.Meter
	for i, vd := range target.Views {
		if ch.views[i] != nil {
			continue
		}
		vi, err := w.hypoView(vd)
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
	for i, d := range target.Indexes {
		if ch.indexes[i] != nil {
			continue
		}
		ix, err := w.hypoIndex(d)
		if err != nil {
			return 0, err
		}
		var rows, pages int64
		if ts := s.stats(d.Table); ts != nil {
			rows, pages = ts.Rows, ts.Pages
		} else if vi := w.viewCache[strings.ToLower(d.Table)]; vi != nil {
			rows, pages = vi.Stats.Rows, vi.Stats.Pages
		}
		meter.Add(indexBuild(pages, rows, ix.LeafPages))
	}
	return w.e.Model.Seconds(&meter), nil
}
