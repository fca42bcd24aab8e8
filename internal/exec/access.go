package exec

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/val"
)

// Where the executor bills (DESIGN §6a). Every operator reads the heaps
// and indexes through these three pieces, so each access path is billed
// by one copy of the optimizer's rule; an operator adds only its own
// per-probe charges and per-row work.

// indexRead is one operator's read of one index: the descent billed once
// at open (FixedRand += Height), one Rows and one limit check per entry
// (next), and at close the leaf pages of every entry read, once over all
// the operator's probes. A probe's own seek — a RandPages per IN value or
// outer row, a FixedRand per range or prefix seek — stays with the
// operator.
type indexRead struct {
	ctx     *Ctx
	ix      *plan.IndexInfo
	entries int64
}

// openIndex opens ix for one operator, whose end must close it.
func (e *executor) openIndex(ix *plan.IndexInfo) (indexRead, error) {
	if ix.Tree == nil {
		return indexRead{}, fmt.Errorf("exec: plan uses hypothetical index %s", ix.Def.Name())
	}
	e.ctx.Meter.FixedRand += int64(ix.Height)
	return indexRead{ctx: e.ctx, ix: ix}, nil
}

// next returns the iterator's next entry, billed; ok is false when it
// is done.
func (r *indexRead) next(it *btree.Iter) (key val.Row, rid int64, ok bool, err error) {
	if key, rid, ok = it.Next(); ok {
		r.entries++
		r.ctx.Meter.Rows++
		err = r.ctx.check()
	}
	return key, rid, ok, err
}

// close bills the leaf pages of the entries read.
func (r *indexRead) close() {
	if epl := r.ix.EntriesPerLeaf; epl > 0 {
		r.ctx.Meter.SeqPages += r.entries / epl
	}
}

// scan runs fn over h's rows in storage order, checking the limit before
// each; the first error stops it.
func (e *executor) scan(h *storage.Heap, fn func(val.Row) error) error {
	var err error
	h.Scan(&e.ctx.Meter, e.checked(&err, fn))
	return err
}

// fetch is scan over the rows ids names, read in rid order
// (Heap.FetchMany); a rid out of range is FetchMany's error.
func (e *executor) fetch(h *storage.Heap, ids []storage.RowID, fn func(val.Row) error) error {
	var err error
	if ferr := h.FetchMany(&e.ctx.Meter, ids, e.checked(&err, fn)); ferr != nil {
		return ferr
	}
	return err
}

// checked is scan's and fetch's visitor: the limit check, then fn, the
// first error kept in *err.
func (e *executor) checked(err *error, fn func(val.Row) error) func(storage.RowID, val.Row) bool {
	return func(_ storage.RowID, r val.Row) bool {
		if *err = e.ctx.check(); *err == nil {
			*err = fn(r)
		}
		return *err == nil
	}
}

// spill bills an operator's spill by the optimizer's rule over actual
// counts: when the held bytes, scaled to full size, exceed the plan's
// memory budget, the pages of the held and the reread bytes are written
// and read back.
func (e *executor) spill(held, reread int64) {
	if float64(held)*scaleOf(e.ctx.Model) > float64(memOf(e)) {
		pg := cost.PagesForBytes(held) + cost.PagesForBytes(reread)
		e.ctx.Meter.WritePage += pg
		e.ctx.Meter.SeqPages += pg
	}
}
