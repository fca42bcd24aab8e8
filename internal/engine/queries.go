package engine

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/sql"
)

// analyzedCap bounds the memo of analyzed queries (DESIGN §11): about
// twice the most distinct texts one engine lineage was measured to
// analyze — 486 in a full autobench run, 474 in the advise benchmark
// workload, each a family sampled through Estimate with its pools and
// view definitions among them — so that neither evicts.
const analyzedCap = 1024

// analyzed is one SQL text's analysis: the query, and what every what-if
// session reads of it — its canonical text and the relations whose
// physical structures can influence its plan, the FROM-list tables plus
// the tables of its IN-subqueries (planInSets consults indexes on
// those). Nothing writes it once it is built.
type analyzed struct {
	text   string // the text as given, the memo's key
	q      *sql.Query
	sql    string
	tables map[string]bool
}

func newAnalyzed(text string, q *sql.Query) *analyzed {
	a := &analyzed{text: text, q: q, sql: q.SQL(), tables: make(map[string]bool, len(q.Tables)+len(q.Ins))}
	for _, t := range q.Tables {
		a.tables[strings.ToLower(t.Table.Name)] = true
	}
	for _, p := range q.Ins {
		a.tables[strings.ToLower(p.SubTable.Name)] = true
	}
	return a
}

// queryMemo is the engine's one analysis of each SQL text, shared by an
// engine and every Fork derived from it as the memo of built structures
// is. An analysis depends only on the text, because the schema is shared
// and never written, so a text the memo holds is analyzed once however
// many sessions, recommenders and forks ask for it. It holds at most
// analyzedCap texts and evicts the least recently asked for first; an
// evicted text is analyzed again on its next use.
type queryMemo struct {
	mu      sync.Mutex
	byText  map[string]*list.Element // conflint:guardedby mu (an *analyzed in lru)
	byQuery map[*sql.Query]*analyzed // conflint:guardedby mu (the same entries, by query)
	lru     list.List                // conflint:guardedby mu (most recently used first)
}

func newQueryMemo() *queryMemo {
	return &queryMemo{byText: make(map[string]*list.Element), byQuery: make(map[*sql.Query]*analyzed)}
}

// get returns the text's analysis, or nil when the memo does not hold it.
func (m *queryMemo) get(text string) *analyzed {
	m.mu.Lock()
	defer m.mu.Unlock()
	el := m.byText[text]
	if el == nil {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*analyzed)
}

// put adds an analysis and returns the memo's entry for its text: a's,
// or the entry a concurrent caller added first, so that every caller of
// one text gets one query.
func (m *queryMemo) put(a *analyzed) *analyzed {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el := m.byText[a.text]; el != nil {
		m.lru.MoveToFront(el)
		return el.Value.(*analyzed)
	}
	m.byText[a.text] = m.lru.PushFront(a)
	m.byQuery[a.q] = a
	for m.lru.Len() > analyzedCap {
		old := m.lru.Remove(m.lru.Back()).(*analyzed)
		delete(m.byText, old.text)
		delete(m.byQuery, old.q)
	}
	return a
}

// of returns the analysis of a query the memo handed out, or nil for one
// it does not hold: analyzed elsewhere, or evicted since.
func (m *queryMemo) of(q *sql.Query) *analyzed {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byQuery[q]
}

// AnalyzeSQL returns the engine's analysis of a query text, parsing and
// analyzing it only when the memo of analyzed queries (queryMemo) does
// not hold the text. The returned query is shared: every caller of the
// same text on this engine and its forks — what-if sessions, view
// derivations and builds, Prepare, the cluster — gets the same pointer,
// so it must never be written.
func (e *Engine) AnalyzeSQL(sqlText string) (*sql.Query, error) {
	if a := e.analyses.get(sqlText); a != nil {
		return a.q, nil
	}
	stmt, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	q, err := sql.Analyze(e.Schema, stmt)
	if err != nil {
		return nil, err
	}
	return e.analyses.put(newAnalyzed(sqlText, q)).q, nil
}
