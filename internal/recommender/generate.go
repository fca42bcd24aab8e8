package recommender

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/conf"
	"repro/internal/sql"
)

// colSets collects, for one query table, the columns playing each
// predicate role — the raw material of index candidates.
type colSets struct {
	eq, rng, join, in, group, agg []string
}

// relevantColumns partitions the query's column references by table
// ordinal and role.
func relevantColumns(q *sql.Query) []colSets {
	out := make([]colSets, len(q.Tables))
	name := func(c sql.QCol) string {
		return q.Tables[c.Tab].Table.Columns[c.Col].Name
	}
	addUnique := func(list *[]string, c string) {
		for _, e := range *list {
			if strings.EqualFold(e, c) {
				return
			}
		}
		*list = append(*list, c)
	}
	for _, p := range q.Sels {
		if p.Op == "=" {
			addUnique(&out[p.Col.Tab].eq, name(p.Col))
		} else {
			addUnique(&out[p.Col.Tab].rng, name(p.Col))
		}
	}
	for _, j := range q.Joins {
		addUnique(&out[j.L.Tab].join, name(j.L))
		addUnique(&out[j.R.Tab].join, name(j.R))
	}
	for _, p := range q.Ins {
		addUnique(&out[p.Col.Tab].in, name(p.Col))
	}
	for _, g := range q.GroupBy {
		addUnique(&out[g.Tab].group, name(g))
	}
	for _, a := range q.Aggs {
		if a.Kind != sql.AggCountStar {
			addUnique(&out[a.Col.Tab].agg, name(a.Col))
		}
	}
	return out
}

// generate builds the per-query candidate list for the profile.
//
// Candidate generation is the search's enumeration phase and changes
// nothing: it may read the profile and q but must build only fresh
// candidates (scoring, which locks the engine via what-if, lives in
// greedy). TestSystemCBuildsOnTPCH calls it twice on one query and
// requires equal candidates and an unchanged q.SQL().
func (r *Recommender) generate(q *sql.Query) []*candidate {
	sets := relevantColumns(q)
	seen := make(map[string]bool)
	var out []*candidate

	add := func(c *candidate) {
		if c == nil || seen[c.key] {
			return
		}
		seen[c.key] = true
		out = append(out, c)
	}
	index := func(table string, cols ...string) *candidate {
		if len(cols) == 0 || len(cols) > r.cfg.MaxWidth {
			return nil
		}
		d := conf.IndexDef{Table: table, Columns: cols}
		return &candidate{key: d.Name(), indexes: []conf.IndexDef{d}}
	}

	for t, cs := range sets {
		table := q.Tables[t].Table.Name
		access := concatUnique(cs.eq, cs.rng, cs.join, cs.in)
		// Singles on every access column.
		for _, c := range access {
			add(index(table, c))
		}
		if r.cfg.Permute {
			// System A: every ordered permutation of relevant-column
			// subsets up to MaxWidth. The count of these is what blows
			// past the evaluation limit on complex workloads.
			rel := concatUnique(access, cs.group)
			for _, perm := range permutations(rel, r.cfg.MaxWidth) {
				add(index(table, perm...))
			}
			continue
		}
		// Targeted composites.
		add(index(table, truncate(concatUnique(cs.eq, cs.join, cs.rng), r.cfg.MaxWidth)...))
		add(index(table, truncate(concatUnique(cs.join, cs.eq), r.cfg.MaxWidth)...))
		// Covering composites: access prefix plus group-by and aggregate
		// columns (enables index-only plans).
		add(index(table, truncate(concatUnique(cs.eq, cs.join, cs.group, cs.agg), r.cfg.MaxWidth)...))
		add(index(table, truncate(concatUnique(cs.in, cs.join, cs.group), r.cfg.MaxWidth)...))
	}

	// Indexes enabling index-only IN-set computation on subquery tables.
	for _, p := range q.Ins {
		add(index(p.SubTable.Name, p.SubTable.Columns[p.SubCol].Name))
	}

	if r.cfg.UseViews {
		for _, c := range r.viewCandidates(q, sets) {
			add(c)
		}
	}
	return out
}

// viewCandidates proposes a materialized view for each joined table pair,
// projecting every column the query needs from the pair, plus an indexed
// variant keyed on the pair's selection columns (paper Table 3: System C
// recommended views over Lineitem ⋈ Partsupp with indexes on them).
//
// Same enumeration-phase contract as generate, pinned by the same test.
func (r *Recommender) viewCandidates(q *sql.Query, sets []colSets) []*candidate {
	// Skip self-joined queries: view matching would be ambiguous.
	namesSeen := make(map[string]bool)
	for _, t := range q.Tables {
		n := strings.ToLower(t.Table.Name)
		if namesSeen[n] {
			return nil
		}
		namesSeen[n] = true
	}

	out := make([]*candidate, 0, len(q.Tables)*len(q.Tables))
	for ti := range q.Tables {
		for tj := ti + 1; tj < len(q.Tables); tj++ {
			joins := make([]sql.JoinPred, 0, len(q.Joins))
			for _, j := range q.Joins {
				if (j.L.Tab == ti && j.R.Tab == tj) || (j.L.Tab == tj && j.R.Tab == ti) {
					joins = append(joins, j)
				}
			}
			if len(joins) == 0 {
				continue
			}
			nameA := q.Tables[ti].Table.Name
			nameB := q.Tables[tj].Table.Name

			colsA, colsB := neededCols(sets, ti), neededCols(sets, tj)
			if len(colsA)+len(colsB) == 0 {
				continue
			}
			proj := make([]string, 0, len(colsA)+len(colsB))
			viewColOf := make(map[string]int) // "alias.col" -> view ordinal
			for _, c := range colsA {
				viewColOf["a."+strings.ToLower(c)] = len(proj)
				proj = append(proj, "a."+c)
			}
			for _, c := range colsB {
				viewColOf["b."+strings.ToLower(c)] = len(proj)
				proj = append(proj, "b."+c)
			}
			preds := make([]string, 0, len(joins))
			for _, j := range joins {
				l, rr := j.L, j.R
				if l.Tab != ti {
					l, rr = rr, l
				}
				preds = append(preds, "a."+q.Tables[ti].Table.Columns[l.Col].Name+
					" = b."+q.Tables[tj].Table.Columns[rr.Col].Name)
			}
			vname := viewName(nameA, nameB, preds)
			vd := conf.ViewDef{
				Name: vname,
				SQL: "SELECT " + strings.Join(proj, ", ") + " FROM " + nameA + " a, " +
					nameB + " b WHERE " + strings.Join(preds, " AND "),
				BaseTables: []string{nameA, nameB},
			}
			out = append(out, &candidate{key: "view:" + vname, views: []conf.ViewDef{vd}})

			// Indexed variant: keys are the selection columns of either
			// side (view columns are named c0..cN by projection position).
			keyCols := make([]string, 0, len(sets[ti].eq)+len(sets[tj].eq))
			for _, c := range sets[ti].eq {
				keyCols = append(keyCols, "c"+strconv.Itoa(viewColOf["a."+strings.ToLower(c)]))
			}
			for _, c := range sets[tj].eq {
				keyCols = append(keyCols, "c"+strconv.Itoa(viewColOf["b."+strings.ToLower(c)]))
			}
			if len(keyCols) > 0 && len(keyCols) <= r.cfg.MaxWidth {
				d := conf.IndexDef{Table: vname, Columns: keyCols}
				out = append(out, &candidate{
					key:     "view+ix:" + d.Name(),
					views:   []conf.ViewDef{vd},
					indexes: []conf.IndexDef{d},
				})
			}
		}
	}
	return out
}

// neededCols lists one side's query-needed columns in deterministic
// order (hoisted out of the pair loop: a closure there would allocate
// its environment once per table pair on the recommendation path).
func neededCols(sets []colSets, t int) []string {
	cs := sets[t]
	return concatUnique(cs.eq, cs.rng, cs.join, cs.in, cs.group, cs.agg)
}

// viewName derives a deterministic, compact view name.
func viewName(a, b string, preds []string) string {
	h := uint32(2166136261)
	for _, p := range preds {
		for i := 0; i < len(p); i++ {
			h = (h ^ uint32(p[i])) * 16777619
		}
	}
	pa, pb := a, b
	if len(pa) > 4 {
		pa = pa[:4]
	}
	if len(pb) > 4 {
		pb = pb[:4]
	}
	return fmt.Sprintf("mv_%s_%s_%x", pa, pb, h&0xffff)
}

// concatUnique appends the lists, dropping case-insensitive duplicates.
func concatUnique(lists ...[]string) []string {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for _, l := range lists {
		for _, c := range l {
			k := strings.ToLower(c)
			if !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

func truncate(l []string, n int) []string {
	if len(l) > n {
		return l[:n]
	}
	return l
}

// permutations enumerates all ordered arrangements of 1..maxLen elements
// drawn from cols (no repetition), in deterministic order.
func permutations(cols []string, maxLen int) [][]string {
	cols = append([]string(nil), cols...)
	sort.Strings(cols)
	// The arrangement count is known in closed form; size the result once
	// instead of growing it through the recursion.
	out := make([][]string, 0, permCount(len(cols), maxLen))
	cur := make([]string, 0, maxLen)
	used := make([]bool, len(cols))
	var rec func()
	rec = func() {
		if len(cur) > 0 {
			out = append(out, append([]string(nil), cur...))
		}
		if len(cur) == maxLen {
			return
		}
		for i, c := range cols {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, c)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}
