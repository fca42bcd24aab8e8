package core

import (
	"math"
	"reflect"
	"testing"
)

// TestParseGoalRejectsNonFinite: a goal spec is outside input, and a
// non-finite field in it must be an error. A NaN fraction would make a
// step every curve meets, since c.At(x) < NaN is always false.
func TestParseGoalRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"10:NaN",
		"10:nan",
		"NaN:0.5",
		"Inf:0.5",
		"+Inf:0.5",
		"infinity:0.5",
		"10:0.1,NaN:0.5",
		"10:0.1,60:NaN",
	} {
		if g, err := ParseGoal(spec); err == nil {
			t.Errorf("ParseGoal(%q) = %v, want an error", spec, g.Steps)
		}
	}
}

// FuzzParseGoal: every spec ParseGoal accepts yields finite steps with
// fractions in (0, 1], and renders back to a spec that parses to an
// equal goal.
func FuzzParseGoal(f *testing.F) {
	for _, seed := range []string{
		"10:0.10,60:0.50,1800:0.90", "0:1", " 5:0.5 , ,7:1", "1e3:0.25",
		"0x1p-2:0.5", "-0:0.5", "10:NaN", "Inf:0.5", "10:1.5", "10", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := ParseGoal(spec)
		if err != nil {
			return
		}
		if len(g.Steps) == 0 {
			t.Fatalf("ParseGoal(%q) accepted no steps", spec)
		}
		for _, st := range g.Steps {
			if math.IsNaN(st.X) || math.IsInf(st.X, 0) || st.X < 0 || !(st.Frac > 0 && st.Frac <= 1) {
				t.Fatalf("ParseGoal(%q) accepted step %+v", spec, st)
			}
		}
		again, err := ParseGoal(g.String())
		if err != nil {
			t.Fatalf("ParseGoal(%q) rejects its own rendering %q: %v", spec, g.String(), err)
		}
		if !reflect.DeepEqual(g, again) {
			t.Fatalf("ParseGoal(%q) = %+v, its rendering %q parses to %+v", spec, g, g.String(), again)
		}
	})
}
