package main

import (
	"fmt"
	"runtime"
	"time"
)

// serveRun is what one run of a serving workload measured.
type serveRun struct {
	setupS   float64
	closed   phase
	open     phase
	allocKB  float64 // allocated over the closed phase, per op
	gc       uint32  // GC cycles over both phases
	attempts int     // every request sent, warm-up included
	failed   int
	refused  int64 // the gateway's own count of rejected requests
	retunes  *retuner
	digests  map[string]string
}

// runServing sets the workload up, warms it, then runs the closed and
// the open phase over one seeded schedule, checking every reply. A
// non-nil retuneTr also records the retuner's spans.
func runServing(w *workload, seed int64, sz sizes, retuneTr *tracer) (*serveRun, error) {
	l, setupS, err := timeSetUps(w, sz.setUps)
	if err != nil {
		return nil, err
	}
	run, err := l.serve(seed, sz, retuneTr)
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	run.setupS = setupS
	return run, nil
}

func (l *lab) serve(seed int64, sz sizes, retuneTr *tracer) (*serveRun, error) {
	orc, err := buildOracle(l.cfg, l.queries)
	if err != nil {
		return nil, err
	}
	snd := newSender(l, orc, nil)
	nClosed, nOpen := requests(sz.closed, l.cycle), requests(sz.open, l.cycle)
	sched := makeSchedule(seed, l.cycle, (nClosed+nOpen)/len(l.cycle)+1)[:nClosed+nOpen]
	warm := warmupSchedule(seed, l.cycle, sz.warmup)
	n := clients()

	runClosed(n, len(warm), func(i int) (time.Time, bool) { return snd.send(-1-i, warm[i]) })

	closedOp := op(func(i int) (time.Time, bool) { return snd.send(i, sched[i]) })
	openOp := op(func(i int) (time.Time, bool) { return snd.send(nClosed+i, sched[nClosed+i]) })
	run := &serveRun{digests: map[string]string{"answers": orc.digest}}
	if every := sz.retuneEvery; every > 0 {
		run.retunes = startRetuner(l, retuneTr, len(sched)/every+1)
		closedOp = run.retunes.wrap(closedOp, 0, every)
		openOp = run.retunes.wrap(openOp, nClosed, every)
	}

	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run.closed = runClosed(n, nClosed, closedOp)
	if run.retunes != nil {
		// Retunes the closed phase triggered finish inside its
		// allocation window, so the window holds whole retunes.
		run.retunes.quiesce()
	}
	runtime.ReadMemStats(&m1)
	run.open = runOpen(openSenders(), nOpen, l.w.rate, openOp)
	if run.retunes != nil {
		if err := run.retunes.stop(); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m2)

	run.allocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(nClosed)
	run.gc = m2.NumGC - m0.NumGC
	run.attempts = len(warm) + nClosed + nOpen
	run.failed = int(snd.failures())
	run.refused = l.gw.Stats().Rejected
	if run.failed > 0 {
		fmt.Printf("failures: %d refused, %d wrong answers, %d transport errors\n",
			snd.refused.Load(), snd.wrong.Load(), snd.broken.Load())
	}
	return run, nil
}
