package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/bench"
	"repro/internal/conf"
	"repro/internal/exec"
	"repro/internal/gateway"
	"repro/internal/shard"
)

// answer is what the oracle knows about one query: the full result's
// size and hash, the hash of what a reply shows of it (column names and
// the first max_rows rendered rows), and its simulated cost.
type answer struct {
	rows     int
	head     uint64
	full     uint64
	sim      float64
	timedOut bool
}

// rowHasher hashes rendered rows; the client feeds it reply rows, the
// oracle feeds it val.Row renderings, and equal rows give equal sums.
type rowHasher struct{ h hash.Hash64 }

func newRowHasher(cols []string) rowHasher {
	r := rowHasher{fnv.New64a()}
	r.row(cols)
	return r
}

func (r rowHasher) row(cells []string) {
	for _, c := range cells {
		r.h.Write([]byte(c))
		r.h.Write([]byte{0})
	}
	r.h.Write([]byte{1})
}

func (r rowHasher) sum() uint64 { return r.h.Sum64() }

// hashResult returns the hash of the first maxRows rendered rows and of
// all of them.
func hashResult(res *exec.Result, maxRows int) (head, full uint64) {
	if res == nil {
		empty := newRowHasher(nil).sum()
		return empty, empty
	}
	hh, fh := newRowHasher(res.Cols), newRowHasher(res.Cols)
	cells := make([]string, 0, len(res.Cols))
	for i, row := range res.Rows {
		cells = cells[:0]
		for _, v := range row {
			cells = append(cells, v.String())
		}
		if i < maxRows {
			hh.row(cells)
		}
		fh.row(cells)
	}
	return hh.sum(), fh.sum()
}

// oracle holds every mix query's answer, computed once at set-up on a
// separately loaded engine that stays in the P configuration (and, for
// a sharded workload, a separately built cluster over it for the
// sharded simulated cost).
type oracle struct {
	answers []answer // by query index
	digest  string
}

func buildOracle(cfg gateway.Config, queries []query) (*oracle, error) {
	lab := bench.NewLab(cfg.Scale, cfg.Seed)
	eng := lab.Engine(cfg.System, bench.DBNref)
	var cl *shard.Cluster
	if cfg.Shards > 1 {
		var err error
		cl, err = shard.New(eng, shard.Spec{Shards: cfg.Shards, Mode: shard.Mode(cfg.ShardMode)}, cfg.ShardPool)
		if err != nil {
			return nil, err
		}
	}
	maxRows := cfg.Tenants[0].MaxRows
	o := &oracle{answers: make([]answer, len(queries))}
	errs := make([]error, len(queries))
	eachPosition(clients(), len(queries), func(i int) {
		res, m, err := eng.Run(queries[i].sql, cfg.TimeoutSeconds)
		if err == nil && cl != nil {
			// Rows are the unsharded engine's; only the cost is the
			// cluster's (max over partitions, not the sum).
			_, m, err = cl.Run(queries[i].sql, cfg.TimeoutSeconds)
		}
		if err != nil {
			errs[i] = fmt.Errorf("oracle: %s: %w", queries[i].sql, err)
			return
		}
		a := answer{sim: m.Seconds, timedOut: m.TimedOut}
		if res != nil {
			a.rows = len(res.Rows)
		}
		a.head, a.full = hashResult(res, maxRows)
		o.answers[i] = a
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	o.digest = answersDigest(queries, o.answers)
	return o, nil
}

// answersDigest folds every (query, answer) pair, in query-text order,
// into one hex digest. Whole cycles cover every query, so the digest is
// the same at every seed and size.
func answersDigest(queries []query, answers []answer) string {
	lines := make([]string, len(queries))
	for i, q := range queries {
		a := answers[i]
		lines[i] = fmt.Sprintf("%s|%s|%d|%016x|%s|%v", q.family, q.sql, a.rows, a.full,
			strconv.FormatFloat(a.sim, 'g', -1, 64), a.timedOut)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// configDigest identifies a recommended configuration by its
// definitions, in the order the recommender chose them.
func configDigest(c conf.Configuration) string {
	h := sha256.New()
	for _, v := range c.Views {
		fmt.Fprintln(h, v.String())
	}
	for _, d := range c.Indexes {
		fmt.Fprintln(h, d.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

//go:embed expected.json
var expectedJSON []byte

// expected maps a workload name to its digests: "answers" for a serving
// workload, one entry per case ("B/NREF3J") for advise.
func expected() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// checkDigests compares the run's digests with expected.json and
// returns one message per disagreement.
func checkDigests(workload string, got map[string]string) ([]string, error) {
	exp, err := expected()
	if err != nil {
		return nil, err
	}
	var bad []string
	for k, v := range got {
		if want := exp[workload][k]; want != v {
			bad = append(bad, fmt.Sprintf("%s digest %q = %s, expected.json says %q", workload, k, v, want))
		}
	}
	sort.Strings(bad)
	return bad, nil
}
