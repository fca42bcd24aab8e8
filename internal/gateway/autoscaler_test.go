package gateway

import (
	"testing"

	"repro/internal/core"
)

// TestAutoscalerCloseWindow pins the record the scaling rules are handed:
// windows number from 1, the mean is over the queries that finished, and
// the goal level is the goal's satisfaction over the window's CFC.
func TestAutoscalerCloseWindow(t *testing.T) {
	as := &autoscaler{g: &Gateway{}, goal: core.Example2Goal()}
	for i := 0; i < 8; i++ {
		as.entries = append(as.entries, core.Measure{Seconds: float64(i+1) * 0.1})
	}
	as.entries = append(as.entries, core.Measure{Seconds: 30, TimedOut: true})
	wantLevel := as.goal.Satisfaction(core.NewCFC(as.entries, 0))

	w := as.closeWindowLocked()
	if w.Window != 1 || w.Queries != 9 || w.MeanSeconds < 0.4499 || w.MeanSeconds > 0.4501 || w.GoalLevel != wantLevel {
		t.Errorf("closeWindowLocked() = %+v; want window 1, 9 queries, mean 0.45, goal level %v", w, wantLevel)
	}
	as.entries = append(as.entries, core.Measure{Seconds: 0.2})
	if w2 := as.closeWindowLocked(); w2.Window != 2 {
		t.Errorf("second window number = %d, want 2", w2.Window)
	}
}
