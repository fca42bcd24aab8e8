package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/storage"
)

// memo is the engine's one memo of built structures, the entry point of
// every index build and every view build. It maps (heap, key columns) to
// the tree fillTree builds over them and the tree's KeyNDV, and a view's
// build inputs (see viewKey) to the view its defining query materializes
// and the meter the build recorded. A build over inputs the memo holds
// returns the structure built before without scanning, sorting or
// executing anything. An engine and every engine Fork derives from it
// share one memo.
//
// Keying on a heap's ID is sound because a published heap is never
// written (growHeap clones, under a new ID, before appending) and a built
// tree or view is never written either. The memo holds no heap it keys
// on: a finalizer drops a heap's entries — its trees and every view that
// reads it — once the heap is collected, so no replaced heap is kept
// alive and no dead heap's structures stay behind. A view entry does hold
// the view's own heap, so the trees of indexes on a reused view are the
// ones built over it before. It also holds the statistics its key names
// (see Engine.viewKey), and goes when CollectStats replaces them (unpin):
// no key names them again. A fork that still serves the replaced
// statistics builds the view again on its next transition to it.
//
// The bound: built trees and view heaps total at most twice the modeled
// bytes of the trees the reference configuration 1C builds over the live
// heaps the memo has indexed. A configuration within the paper's budget
// (1C − P beyond P, §3.2.3) is no larger than 1C, so the configuration
// serving and one to swing back to both fit. An entry that takes the
// total past the bound evicts the least recently built or reused entries
// first, trees and views alike.
type memo struct {
	mu     sync.Mutex
	heaps  map[uint64]*heapEntries // conflint:guardedby mu (by heap ID, until the heap is collected)
	order  []*memoEntry            // conflint:guardedby mu (built entries, least recently used first)
	bytes  int64                   // conflint:guardedby mu (modeled bytes of the entries in order)
	limit  int64                   // conflint:guardedby mu (twice the 1C share of every heap in heaps)
	builds int64                   // conflint:guardedby mu (fillTree runs and view materializations)
}

// heapEntries is the memo's record of one live heap: the trees over it
// by key columns and the views that read it by view key.
type heapEntries struct {
	share   int64 // oneColumnShare of the heap
	entries map[string]*memoEntry
}

// memoEntry is one built structure: a tree or a view. It is listed under
// every heap in heaps — a tree's one heap, a view's defining tables' —
// by key. Its builder writes the structure, bytes and err once, before
// it closes done; dropped is written under the memo's mutex.
type memoEntry struct {
	key     string
	heaps   []uint64
	done    chan struct{}
	bytes   int64
	dropped bool // no longer listed: evicted, forgotten or failed

	tree *btree.Tree
	ndv  []int64

	view  *plan.ViewInfo
	meter cost.Meter
	err   error
	// pins holds the statistics viewKey names by address, so that no
	// other statistics can take an address the key names while the entry
	// lives.
	pins []*stats.TableStats
}

func newMemo() *memo {
	return &memo{heaps: make(map[uint64]*heapEntries)}
}

// tree returns the tree over the heap on the key columns and its KeyNDV,
// running fillTree only when the memo does not hold them. Concurrent
// callers for one pair share one build.
func (m *memo) tree(heap *storage.Heap, cols []int) (*btree.Tree, []int64) {
	t, build := m.claim(fmt.Sprint(cols), []*storage.Heap{heap}, nil)
	if build {
		t.tree, t.ndv = fillTree(heap, cols)
		t.bytes = t.tree.Shape().Bytes
		close(t.done)
		m.admit(t)
	}
	<-t.done
	return t.tree, t.ndv
}

// view returns the view built under key (a viewKey) and the meter its
// build recorded, running build only when the memo does not hold them.
// heaps are the defining tables' heaps and pins the statistics the key
// names by address. Concurrent callers for one key share one build; a
// failed build is not kept.
func (m *memo) view(key string, heaps []*storage.Heap, pins []*stats.TableStats,
	build func() (*plan.ViewInfo, cost.Meter, error)) (*plan.ViewInfo, cost.Meter, error) {
	v, mine := m.claim(key, heaps, pins)
	if mine {
		if v.view, v.meter, v.err = build(); v.err == nil {
			v.bytes = v.view.Heap.Bytes()
		}
		close(v.done)
		m.admit(v)
	}
	<-v.done
	return v.view, v.meter, v.err
}

// claim returns the entry listed under key on the heaps, adding an
// unbuilt one that pins the statistics when there is none, and reports
// whether the caller must build it. A heap's first entry records the
// heap and sets the finalizer that forgets it; every engine sharing the
// heap shares this memo, so no other finalizer is set on it.
func (m *memo) claim(key string, heaps []*storage.Heap, pins []*stats.TableStats) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, len(heaps))
	for i, heap := range heaps {
		id := heap.ID()
		if m.heaps[id] == nil {
			he := &heapEntries{share: oneColumnShare(heap), entries: make(map[string]*memoEntry)}
			m.heaps[id] = he
			m.limit += 2 * he.share
			runtime.SetFinalizer(heap, func(*storage.Heap) { m.forget(id) })
		}
		ids[i] = id
	}
	if en := m.heaps[ids[0]].entries[key]; en != nil {
		if i := slices.Index(m.order, en); i >= 0 { // built: now the most recently used
			m.order = append(slices.Delete(m.order, i, i+1), en)
		}
		return en, false
	}
	en := &memoEntry{key: key, heaps: ids, done: make(chan struct{}), pins: pins}
	for _, id := range ids {
		m.heaps[id].entries[key] = en
	}
	m.builds++
	return en, true
}

// admit counts a built entry against the bound and evicts the least
// recently used entries while the total exceeds it. A failed build is
// unlisted, so the next claim builds again.
func (m *memo) admit(en *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if en.dropped {
		return // a heap it reads was collected during the build
	}
	if en.err != nil {
		m.unlist(en)
		return
	}
	m.order = append(m.order, en)
	m.bytes += en.bytes
	for m.bytes > m.limit {
		old := m.order[0]
		m.order = slices.Delete(m.order, 0, 1)
		m.bytes -= old.bytes
		m.unlist(old)
	}
}

// unlist drops an entry from every heap record it is listed under. The
// caller holds m.mu and removes it from order.
func (m *memo) unlist(en *memoEntry) {
	en.dropped = true
	for _, id := range en.heaps {
		if he := m.heaps[id]; he != nil && he.entries[en.key] == en {
			delete(he.entries, en.key)
		}
	}
}

// forget drops a collected heap with its trees and the views that read
// it.
func (m *memo) forget(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	he := m.heaps[id]
	if he == nil {
		return
	}
	delete(m.heaps, id)
	m.limit -= 2 * he.share
	for _, en := range he.entries {
		m.unlist(en)
	}
	m.pruneLocked()
}

// unpin drops the views whose key names any of the statistics, which
// CollectStats has replaced, built or still building.
func (m *memo) unpin(replaced []*stats.TableStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, he := range m.heaps {
		for _, en := range he.entries {
			if slices.ContainsFunc(en.pins, func(ts *stats.TableStats) bool { return slices.Contains(replaced, ts) }) {
				m.unlist(en)
			}
		}
	}
	m.pruneLocked()
}

// pruneLocked takes the unlisted entries out of order and the bytes.
// The caller holds m.mu.
func (m *memo) pruneLocked() {
	m.order = slices.DeleteFunc(m.order, func(en *memoEntry) bool {
		if !en.dropped {
			return false
		}
		m.bytes -= en.bytes
		return true
	})
}

// oneColumnShare is the modeled bytes of the trees the reference
// configuration 1C builds over the heap — its primary key's and one per
// other indexable column — sized as hypothetical indexes are (§11).
func oneColumnShare(heap *storage.Heap) int64 {
	t, rows := heap.Table, heap.NumRows()
	size := func(cols ...int) int64 {
		w := int64(8) // rid
		for _, c := range cols {
			w += storedWidth(t.Columns[c])
		}
		return btree.Shape(rows, w).Bytes
	}
	pk := t.PrimaryKeyOffsets()
	var b int64
	if len(pk) > 0 {
		b = size(pk...)
	}
	for i, c := range t.Columns {
		if c.Indexable && !(len(pk) == 1 && pk[0] == i) {
			b += size(i)
		}
	}
	return b
}
