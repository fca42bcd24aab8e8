package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseGoal parses a step-goal spec of the form
// "10:0.10,60:0.50,1800:0.90": each comma-separated SECONDS:FRACTION
// pair declares G(x) = FRACTION from x = SECONDS on. It is the textual
// goal format shared by autopilotd's -goal flag and the gateway's
// per-tenant configuration, so it comes from outside the program: NaN
// and infinite values are rejected in either field.
func ParseGoal(spec string) (Goal, error) {
	g := Goal{Name: "custom"}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		xs, fs, ok := strings.Cut(part, ":")
		if !ok {
			return Goal{}, fmt.Errorf("goal step %q: want SECONDS:FRACTION", part)
		}
		x, err := strconv.ParseFloat(xs, 64)
		if err != nil {
			return Goal{}, err
		}
		f, err := strconv.ParseFloat(fs, 64)
		if err != nil {
			return Goal{}, err
		}
		// Written so that NaN fails too: a NaN fraction is a step no curve
		// can miss (every comparison with it is false).
		if !(x >= 0 && !math.IsInf(x, 1) && f > 0 && f <= 1) {
			return Goal{}, fmt.Errorf("goal step %q: want finite SECONDS >= 0 and FRACTION in (0,1]", part)
		}
		g.Steps = append(g.Steps, GoalStep{X: x, Frac: f})
	}
	if len(g.Steps) == 0 {
		return Goal{}, fmt.Errorf("no goal steps in %q", spec)
	}
	return g, nil
}

// String renders a goal back to the ParseGoal format.
func (g Goal) String() string {
	parts := make([]string, len(g.Steps))
	for i, st := range g.Steps {
		parts[i] = strconv.FormatFloat(st.X, 'g', -1, 64) + ":" + strconv.FormatFloat(st.Frac, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}
