package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/btree"
	"repro/internal/storage"
)

// treeMemo is the one index-build entry point: it maps (heap, key
// columns) to the tree fillTree builds over them and the tree's KeyNDV,
// so a build over a heap already indexed on the same columns returns the
// same tree without scanning or sorting. An engine and every engine Fork
// derives from it share one memo.
//
// Keying on the heap's ID is sound because a published heap is never
// written (growHeap clones, under a new ID, before appending) and a built
// tree is never written either. The memo holds no heap: a finalizer drops
// a heap's trees once the heap is collected, so no replaced heap is kept
// alive and no dead heap's trees stay behind.
//
// The bound: built trees total at most twice the modeled bytes of the
// trees the reference configuration 1C builds over the live heaps the
// memo has indexed. A configuration within the paper's budget (1C − P
// beyond P, §3.2.3) is no larger than 1C, so the configuration serving
// and one to swing back to both fit. A tree that takes the total past the
// bound evicts the least recently built or reused trees first.
type treeMemo struct {
	mu     sync.Mutex
	heaps  map[uint64]*heapTrees // conflint:guardedby mu (by heap ID, until the heap is collected)
	order  []*memoTree           // conflint:guardedby mu (built trees, least recently used first)
	bytes  int64                 // conflint:guardedby mu (modeled bytes of the trees in order)
	limit  int64                 // conflint:guardedby mu (twice the 1C share of every heap in heaps)
	builds int64                 // conflint:guardedby mu (fillTree runs)
}

// heapTrees is the memo's record of one live heap.
type heapTrees struct {
	share int64                // oneColumnShare of the heap
	trees map[string]*memoTree // by key columns
}

// memoTree is one (heap, key columns) entry. Its builder writes tree, ndv
// and bytes once, before it closes done.
type memoTree struct {
	heap  uint64
	cols  string
	done  chan struct{}
	tree  *btree.Tree
	ndv   []int64
	bytes int64
}

func newTreeMemo() *treeMemo {
	return &treeMemo{heaps: make(map[uint64]*heapTrees)}
}

// tree returns the tree over the heap on the key columns and its KeyNDV,
// running fillTree only when the memo does not hold them. Concurrent
// callers for one pair share one build.
func (m *treeMemo) tree(heap *storage.Heap, cols []int) (*btree.Tree, []int64) {
	t, build := m.claim(heap, cols)
	if build {
		t.tree, t.ndv = fillTree(heap, cols)
		t.bytes = t.tree.Shape().Bytes
		close(t.done)
		m.admit(t)
	}
	<-t.done
	return t.tree, t.ndv
}

// claim returns the heap's entry on the key columns, adding an unbuilt
// one when there is none, and reports whether the caller must build it.
// A heap's first entry records the heap and sets the finalizer that
// forgets it; every engine sharing the heap shares this memo, so no other
// finalizer is set on it.
func (m *treeMemo) claim(heap *storage.Heap, cols []int) (*memoTree, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := heap.ID()
	ht := m.heaps[id]
	if ht == nil {
		ht = &heapTrees{share: oneColumnShare(heap), trees: make(map[string]*memoTree)}
		m.heaps[id] = ht
		m.limit += 2 * ht.share
		runtime.SetFinalizer(heap, func(*storage.Heap) { m.forget(id) })
	}
	key := fmt.Sprint(cols)
	if t := ht.trees[key]; t != nil {
		if i := slices.Index(m.order, t); i >= 0 { // built: now the most recently used
			m.order = append(slices.Delete(m.order, i, i+1), t)
		}
		return t, false
	}
	t := &memoTree{heap: id, cols: key, done: make(chan struct{})}
	ht.trees[key] = t
	m.builds++
	return t, true
}

// admit counts a built tree against the bound and evicts the least
// recently used trees while the total exceeds it.
func (m *treeMemo) admit(t *memoTree) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.heaps[t.heap] == nil {
		return // the heap was collected during the build
	}
	m.order = append(m.order, t)
	m.bytes += t.bytes
	for m.bytes > m.limit {
		old := m.order[0]
		m.order = slices.Delete(m.order, 0, 1)
		m.bytes -= old.bytes
		delete(m.heaps[old.heap].trees, old.cols)
	}
}

// forget drops a collected heap and its trees.
func (m *treeMemo) forget(id uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ht := m.heaps[id]
	if ht == nil {
		return
	}
	delete(m.heaps, id)
	m.limit -= 2 * ht.share
	m.order = slices.DeleteFunc(m.order, func(t *memoTree) bool {
		if t.heap != id {
			return false
		}
		m.bytes -= t.bytes
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
