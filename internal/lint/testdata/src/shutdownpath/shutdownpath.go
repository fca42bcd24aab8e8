// Fixture for the shutdownpath analyzer: every conflint:worker must
// declare its lifecycle, and for channel lifecycles every blocking
// operation reachable from the worker body — directly or through
// callees — must be guarded by that channel.
package shutdownfix

import (
	"sync"
	"sync/atomic"
)

type worker struct {
	trigger chan struct{}
	other   chan int
	done    chan struct{}
}

// startGood ranges over its lifecycle channel: the canonical clean shape.
func (w *worker) startGood() {
	// conflint:worker lifecycle=trigger drains trigger until closed
	go func() {
		defer close(w.done)
		for range w.trigger {
		}
	}()
}

// startUndeclared has a reason but no lifecycle token.
func (w *worker) startUndeclared() {
	// conflint:worker drains other forever
	go func() { // want "conflint:worker must declare its shutdown mechanism"
		for range w.other {
		}
	}()
}

// startNoReason declares the lifecycle but gives no reason.
func (w *worker) startNoReason() {
	// conflint:worker lifecycle=trigger
	go func() { // want "conflint:worker needs a reason beyond the lifecycle token"
		for range w.trigger {
		}
	}()
}

// startSend blocks on an unguarded send inside the guarded loop.
func (w *worker) startSend(results chan int) {
	// conflint:worker lifecycle=trigger forwards results
	go func() {
		for range w.trigger {
			results <- 1 // want "worker \(lifecycle=trigger\) sends on results with no lifecycle guard"
		}
	}()
}

// startSelect guards every block with a case receiving from the
// lifecycle channel: clean.
func (w *worker) startSelect(work chan int) {
	// conflint:worker lifecycle=trigger select-guarded pump
	go func() {
		for {
			select {
			case <-w.trigger:
				return
			case v := <-work:
				_ = v
			}
		}
	}()
}

// startBadSelect selects with no default and no lifecycle case.
func (w *worker) startBadSelect(a, b chan int) {
	// conflint:worker lifecycle=trigger merges a and b
	go func() {
		for {
			select { // want "worker \(lifecycle=trigger\) blocks in a select with no default and no case receiving from lifecycle channel trigger"
			case v := <-a:
				_ = v
			case v := <-b:
				_ = v
			}
		}
	}()
}

// pumpAll may block: its summary carries the range up to its callers.
func (w *worker) pumpAll(jobs chan int) {
	for j := range jobs {
		_ = j
	}
}

// startTransitive blocks one call-graph level down: the finding lands on
// the call, with the witness chaining into pumpAll.
func (w *worker) startTransitive(jobs chan int) {
	// conflint:worker lifecycle=trigger delegates to pumpAll
	go func() {
		for range w.trigger {
			w.pumpAll(jobs) // want "worker \(lifecycle=trigger\) ranges over channel jobs, which is not the lifecycle channel"
		}
	}()
}

// startNone claims the worker never blocks; the receive disproves it.
func (w *worker) startNone(c chan int) {
	// conflint:worker lifecycle=none claims it never blocks
	go func() {
		<-c // want "worker \(lifecycle=none\) receives from c with no lifecycle guard"
	}()
}

// startExternal is stopped by an external mechanism: the body is not
// scanned, like the repo's HTTP listeners under srv.Shutdown.
func (w *worker) startExternal(c chan int) {
	// conflint:worker lifecycle=external stopped by the fixture harness
	go func() {
		<-c
	}()
}

// startWait joins a WaitGroup inside the worker: unguarded blocking.
func (w *worker) startWait(wg *sync.WaitGroup) {
	// conflint:worker lifecycle=trigger joins the group per tick
	go func() {
		for range w.trigger {
			wg.Wait() // want "worker \(lifecycle=trigger\) waits on wg with no lifecycle guard"
		}
	}()
}

// boundedNotify's send carries a reasoned ignore: the exemption at the
// source kills every transitive report through it.
func (w *worker) boundedNotify(c chan int) {
	c <- 1 // conflint:ignore buffered capacity-1 notification send, provably bounded in this fixture
}

// startIgnored is clean because its only block is ignored at the source.
func (w *worker) startIgnored(c chan int) {
	// conflint:worker lifecycle=trigger notifier with a bounded send
	go func() {
		for range w.trigger {
			w.boundedNotify(c)
		}
	}()
}

// notifier is reached only through an atomic.Pointer: the resolver must
// type Load()'s result as *notifier to see the send behind it.
type notifier struct {
	ch chan struct{}
}

// signal is a bare send: it blocks until somebody receives.
func (n *notifier) signal() {
	n.ch <- struct{}{}
}

type hub struct {
	trigger chan struct{}
	notifP  atomic.Pointer[notifier]
}

// poke reaches the send through the value loaded from the pointer.
func (h *hub) poke() {
	if n := h.notifP.Load(); n != nil {
		n.signal()
	}
}

// startLoaded blocks three frames down — worker → poke → the loaded
// notifier's signal → bare send — and the middle hop crosses an
// atomic.Pointer[T].Load().
func (h *hub) startLoaded() {
	// conflint:worker lifecycle=trigger pokes the notifier per tick
	go func() {
		for range h.trigger {
			h.poke() // want "worker \(lifecycle=trigger\) sends on n\.ch with no lifecycle guard"
		}
	}()
}

// startLoadedDirect calls through the Load() result without a local.
func (h *hub) startLoadedDirect() {
	// conflint:worker lifecycle=trigger signals the notifier per tick
	go func() {
		for range h.trigger {
			h.notifP.Load().signal() // want "worker \(lifecycle=trigger\) sends on n\.ch with no lifecycle guard"
		}
	}()
}
