package gateway

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/sql"
)

// errClientGone: the request context ended while the query waited.
var errClientGone = errors.New("gateway: client gone before the query ran")

// admit takes an admission slot for a parsed, authorized query, or
// returns a rejection reason. The drain ticket is taken with the slot
// under the accept lock — Shutdown flips draining under the write lock,
// so every ticket is either counted by the drain wait or never issued;
// there is no window where an accepted query can be dropped.
func (g *Gateway) admit(t *tenantState, family string) string {
	g.acceptMu.RLock()
	defer g.acceptMu.RUnlock()
	if g.draining {
		return ReasonDraining
	}
	select {
	case t.slots <- struct{}{}:
		g.drainWG.Add(1)
		t.noteAdmitted(family)
		return ""
	default:
		return ReasonQueueFull
	}
}

// execute runs one admitted query on the calling goroutine under a
// tenant run slot (blocked senders wake in arrival order, so FIFO), then
// a gate slot. It returns holding the run slot, which finish releases
// after the audit record, or holding nothing with errClientGone if ctx
// ended during either wait. A panic becomes an execution error.
func (g *Gateway) execute(ctx context.Context, t *tenantState, q *sql.Query) (res *exec.Result, m engine.Measure, err error) {
	select {
	case t.run <- struct{}{}:
	case <-ctx.Done():
		return nil, engine.Measure{}, errClientGone
	}
	select {
	case g.gate <- struct{}{}:
	case <-ctx.Done():
		<-t.run
		return nil, engine.Measure{}, errClientGone
	}
	defer func() {
		if r := recover(); r != nil {
			res, m, err = nil, engine.Measure{}, fmt.Errorf("gateway: query panicked: %v", r)
		}
		<-g.gate
	}()
	return g.run(q, g.cfg.TimeoutSeconds)
}

// finish closes out one admitted query: audit record first, then the
// tenant's accounting, the tuner nudge, the autoscaler, the run and
// admission slots, and the drain ticket last — so once Shutdown's drain
// wait returns, every accepted query's completion is on the audit log
// (the zero-dropped-after-accept contract). Client-gone counts as errored.
func (g *Gateway) finish(t *tenantState, seq int64, family, sqlText string, res *exec.Result, m engine.Measure, err error) {
	rec := AuditRecord{
		Seq:      seq,
		Tenant:   t.cfg.Name,
		Family:   family,
		Decision: DecisionAccept,
		Status:   200,
		SQLHash:  hashSQL(sqlText),
	}
	switch {
	case err == errClientGone:
		rec.Status = 499 // nginx's "client closed request"
		rec.Reason = ReasonClientGone
	case err != nil:
		rec.Status = 500
		rec.Reason = "execution-error"
	default:
		rec.SimSeconds = m.Seconds
		rec.TimedOut = m.TimedOut
		if res != nil {
			rec.Rows = len(res.Rows)
		}
	}
	g.audit.add(rec)
	if t.noteCompleted(sqlText, m.Seconds, m.TimedOut, err != nil) {
		if tn := g.tunerP.Load(); tn != nil {
			tn.signal()
		}
	}
	if as := g.autoP.Load(); as != nil {
		as.observe(m.Seconds, m.TimedOut, err != nil)
	}
	if err != errClientGone {
		<-t.run
	}
	<-t.slots
	g.drainWG.Done()
}
