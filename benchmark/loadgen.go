package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reply is the part of the gateway's /v1/query body the benchmark
// checks.
type reply struct {
	Seq        int64      `json:"seq"`
	SimSeconds float64    `json:"sim_seconds"`
	TimedOut   bool       `json:"timed_out"`
	RowCount   int        `json:"row_count"`
	Cols       []string   `json:"cols"`
	Rows       [][]string `json:"rows"`
}

// sender issues the lab's queries over HTTP and checks every reply
// against the oracle.
type sender struct {
	lab    *lab
	oracle *oracle
	bodies [][]byte // per query: the request body after the seq field
	tr     *tracer  // non-nil: record request and http spans, send the span header

	refused atomic.Int64 // non-200 replies
	wrong   atomic.Int64 // 200 replies that disagree with the oracle
	broken  atomic.Int64 // transport errors
}

func newSender(l *lab, o *oracle, tr *tracer) *sender {
	s := &sender{lab: l, oracle: o, tr: tr, bodies: make([][]byte, len(l.queries))}
	for i, q := range l.queries {
		sqlJSON, _ := json.Marshal(q.sql) // a string always marshals
		s.bodies[i] = []byte(fmt.Sprintf(`,"family":%q,"sql":%s}`, q.family, sqlJSON))
	}
	return s
}

// send issues the query scheduled at position pos and reports when the
// reply had been read in full and whether it was a correct answer. A
// failure of any kind (transport, status, answer) is a failed op.
func (s *sender) send(pos, qi int) (done time.Time, ok bool) {
	q := s.lab.queries[qi]
	var reqSpan, httpSpan int
	if s.tr != nil {
		reqSpan = s.tr.begin("request", pos, 0)
		defer func() { s.tr.end(reqSpan) }()
	}
	body := make([]byte, 0, 16+len(s.bodies[qi]))
	body = append(body, `{"seq":`...)
	body = strconv.AppendInt(body, int64(pos), 10)
	body = append(body, s.bodies[qi]...)
	req, err := http.NewRequest(http.MethodPost, s.lab.url, bytes.NewReader(body))
	if err != nil {
		s.broken.Add(1)
		return time.Now(), false
	}
	req.Header.Set("X-API-Key", q.apiKey)
	if s.tr != nil {
		httpSpan = s.tr.begin("http", pos, reqSpan)
		req.Header.Set(spanHeader, strconv.Itoa(pos)+":"+strconv.Itoa(httpSpan))
	}
	resp, err := s.lab.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done = time.Now()
	if s.tr != nil {
		s.tr.end(httpSpan)
	}
	if err != nil {
		s.broken.Add(1)
		return done, false
	}
	if resp.StatusCode != http.StatusOK {
		s.refused.Add(1)
		return done, false
	}
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		s.wrong.Add(1)
		return done, false
	}
	if !s.matches(qi, pos, &r) {
		s.wrong.Add(1)
		return done, false
	}
	return done, true
}

// matches compares a reply with the oracle's answer: the rows always,
// the simulated cost where the configuration is fixed.
func (s *sender) matches(qi, pos int, r *reply) bool {
	a := s.oracle.answers[qi]
	if r.Seq != int64(pos) || r.RowCount != a.rows {
		return false
	}
	h := newRowHasher(r.Cols)
	for _, row := range r.Rows {
		h.row(row)
	}
	if h.sum() != a.head {
		return false
	}
	if s.lab.w.fixedConfig && (r.SimSeconds != a.sim || r.TimedOut != a.timedOut) {
		return false
	}
	return true
}

func (s *sender) failures() int64 { return s.refused.Load() + s.wrong.Load() + s.broken.Load() }

// op issues the request at one schedule position and reports when it
// completed and whether it succeeded.
type op func(pos int) (done time.Time, ok bool)

// phase is what one load phase measured, indexed by position within the
// phase.
type phase struct {
	begin  time.Time
	wall   time.Duration
	start  []time.Time     // when the request was issued
	done   []time.Time     // when its reply had been read
	lat    []time.Duration // closed: done-start; open: done-due
	late   []time.Duration // open only: how late the generator itself issued it
	failed int
}

// segmentWalls cuts the phase into segs equal runs of positions and
// returns how long each took: from the start of its first request to the
// start of the next run's first (to the end of the phase for the last).
func (p phase) segmentWalls(segs int) []time.Duration {
	size := len(p.start) / segs
	walls := make([]time.Duration, segs)
	for k := range walls {
		end := p.begin.Add(p.wall)
		if k < segs-1 {
			end = p.start[(k+1)*size]
		}
		walls[k] = end.Sub(p.start[k*size])
	}
	return walls
}

// eachPosition calls f(i) once for every i in [0, n) from the given
// number of goroutines, each taking the next position as soon as its
// previous call returned, and waits for them all.
func eachPosition(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runClosed walks positions [0, n) with the given number of clients,
// each taking the next position as soon as its previous reply arrived:
// the capacity measurement.
func runClosed(nClients, n int, do op) phase {
	p := phase{start: make([]time.Time, n), done: make([]time.Time, n), lat: make([]time.Duration, n)}
	var failed atomic.Int64
	begin := time.Now()
	eachPosition(nClients, n, func(i int) {
		p.start[i] = time.Now()
		done, ok := do(i)
		p.done[i] = done
		p.lat[i] = done.Sub(p.start[i])
		if !ok {
			failed.Add(1)
		}
	})
	p.begin, p.wall = begin, time.Since(begin)
	p.failed = int(failed.Load())
	return p
}

// runOpen issues positions [0, n) on a fixed-rate schedule: position i
// is due at begin + i/rate whether or not earlier replies have arrived.
// A stall delays every request due behind it, and latency is counted
// from the due time so that delay is charged. late is the generator's
// own tardiness: how long after both the due time and the sender
// becoming free the request went out.
func runOpen(nSenders, n int, rate float64, do op) phase {
	p := phase{start: make([]time.Time, n), done: make([]time.Time, n),
		lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var failed atomic.Int64
	gap := time.Duration(float64(time.Second) / rate)
	begin := time.Now().Add(time.Millisecond)
	eachPosition(nSenders, n, func(i int) {
		due := begin.Add(time.Duration(i) * gap)
		free := time.Now()
		if wait := due.Sub(free); wait > 0 {
			time.Sleep(wait)
			free = due
		}
		p.start[i] = time.Now()
		p.late[i] = p.start[i].Sub(free)
		done, ok := do(i)
		p.done[i] = done
		p.lat[i] = done.Sub(due)
		if !ok {
			failed.Add(1)
		}
	})
	p.begin, p.wall = begin, time.Since(begin)
	p.failed = int(failed.Load())
	return p
}
