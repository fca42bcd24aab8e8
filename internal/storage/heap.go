// Package storage implements heap tables: unordered collections of typed
// rows laid out in fixed-size logical pages.
//
// The heap is a real, executable store (scans and fetches return real
// rows), but it also participates in the benchmark's simulated clock: every
// access bills the logical pages it touches to a cost.Meter, so the
// difference between a sequential scan and an index-driven random fetch
// pattern is observable in simulated time exactly as it would be on disk.
package storage

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/val"
)

// RowID identifies a row within a heap. RowIDs are dense and stable: the
// benchmark workloads are insert-only (paper §3.2.2 considers retrieval
// queries plus the §4.4 insertion experiment), so rows are never deleted.
type RowID int64

// PageOf returns the logical page number of a row given rows-per-page.
func (r RowID) PageOf(rowsPerPage int) int64 { return int64(r) / int64(rowsPerPage) }

// Heap stores the rows of one table.
type Heap struct {
	Table *catalog.Table

	rows        []val.Row
	rowsPerPage int
	id          uint64
}

// heapIDs numbers heaps: no two heaps, a clone and its original
// included, share an ID.
var heapIDs atomic.Uint64

// NewHeap creates an empty heap for the table. The number of rows per
// logical page is derived from the table's modeled row width.
func NewHeap(t *catalog.Table) *Heap {
	rpp := cost.PageSize / t.RowWidth()
	if rpp < 1 {
		rpp = 1
	}
	return &Heap{Table: t, rowsPerPage: rpp, id: heapIDs.Add(1)}
}

// Clone returns a heap over the same rows that shares no spare capacity
// with h: its first append copies the rows, so appending to a clone never
// writes storage another heap reads. The clone has an ID of its own.
func (h *Heap) Clone() *Heap {
	c := *h
	c.rows = slices.Clip(h.rows)
	c.id = heapIDs.Add(1)
	return &c
}

// ID identifies the heap among all heaps in the process, for structures
// derived from its rows: once nothing appends to a heap, whatever was
// derived from it under its ID stays valid.
func (h *Heap) ID() uint64 { return h.id }

// Insert appends a row and returns its RowID. The row must have one value
// per table column; Insert bills a page write to m when it opens a fresh
// page (the amortized cost of appending) and one row of CPU work.
func (h *Heap) Insert(m *cost.Meter, r val.Row) (RowID, error) {
	if len(r) != len(h.Table.Columns) {
		return 0, fmt.Errorf("heap %s: inserting %d values into %d columns",
			h.Table.Name, len(r), len(h.Table.Columns))
	}
	id := RowID(len(h.rows))
	h.rows = append(h.rows, r)
	if m != nil {
		m.Rows++
		if int(id)%h.rowsPerPage == 0 {
			m.WritePage++
		}
	}
	return id, nil
}

// NumRows returns the number of rows in the heap.
func (h *Heap) NumRows() int64 { return int64(len(h.rows)) }

// RowsPerPage returns the number of rows stored per logical page.
func (h *Heap) RowsPerPage() int { return h.rowsPerPage }

// Pages returns the number of logical pages occupied by the heap.
func (h *Heap) Pages() int64 {
	n := int64(len(h.rows))
	rpp := int64(h.rowsPerPage)
	return (n + rpp - 1) / rpp
}

// Bytes returns the modeled on-disk size of the heap.
func (h *Heap) Bytes() int64 { return h.Pages() * cost.PageSize }

// Scan iterates all rows in storage order, billing sequential page reads
// and per-row CPU to m as it goes. Iteration stops early if fn returns
// false; only the pages actually touched are billed.
func (h *Heap) Scan(m *cost.Meter, fn func(id RowID, r val.Row) bool) {
	for i, r := range h.rows {
		if m != nil {
			if i%h.rowsPerPage == 0 {
				m.SeqPages++
			}
			m.Rows++
		}
		if !fn(RowID(i), r) {
			return
		}
	}
}

// Cursor provides random access to heap rows with page-locality
// accounting: consecutive fetches that land on the same logical page bill
// only one random page read. This models the clustering effect that makes
// an index on a clustered column cheaper to drive fetches through.
type Cursor struct {
	h        *Heap
	lastPage int64
}

// NewCursor returns a cursor over the heap.
func (h *Heap) NewCursor() *Cursor { return &Cursor{h: h, lastPage: -1} }

// Fetch returns the row with the given id, billing a random page read to m
// unless the row shares a page with the previous fetch through this cursor.
func (c *Cursor) Fetch(m *cost.Meter, id RowID) (val.Row, error) {
	if id < 0 || int64(id) >= int64(len(c.h.rows)) {
		return nil, fmt.Errorf("heap %s: row %d out of range [0,%d)", c.h.Table.Name, id, len(c.h.rows))
	}
	if m != nil {
		page := id.PageOf(c.h.rowsPerPage)
		if page != c.lastPage {
			m.RandPages++
			c.lastPage = page
		}
		m.Rows++
	}
	return c.h.rows[id], nil
}

// Get returns the row with the given id without cost accounting.
// It is intended for index build and statistics collection paths that
// account for their work at a coarser granularity.
func (h *Heap) Get(id RowID) val.Row {
	return h.rows[id]
}

// FetchMany fetches the rows for the given ids in storage order, billing
// one sequential page read per distinct page touched (the rid-sort /
// list-prefetch access pattern: rids gathered from an index are sorted so
// the heap is read in page order). Iteration stops early if fn returns
// false. The ids slice is not modified.
func (h *Heap) FetchMany(m *cost.Meter, ids []RowID, fn func(RowID, val.Row) bool) error {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	lastPage := int64(-1)
	for _, id := range sorted {
		if id < 0 || int64(id) >= int64(len(h.rows)) {
			return fmt.Errorf("heap %s: row %d out of range [0,%d)", h.Table.Name, id, len(h.rows))
		}
		if m != nil {
			if page := id.PageOf(h.rowsPerPage); page != lastPage {
				m.SeqPages++
				lastPage = page
			}
			m.Rows++
		}
		if !fn(id, h.rows[id]) {
			return nil
		}
	}
	return nil
}
