package engine

// QueryState reports a what-if session's per-query state, its query
// fingerprints, and the texts its engine's memo of analyzed queries
// holds.
func QueryState(w *WhatIf) (fingerprints, texts int) {
	m := w.e.analyses
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(w.queries), m.lru.Len()
}
