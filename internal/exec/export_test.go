package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/val"
)

// outcome is what one execution shows a caller: the result or partial
// rendered to bytes, the error, and the meter.
type outcome struct {
	out   string
	err   error
	meter string
}

// execute runs p at the given limit, fused or enumerating, through Run
// or RunPartial.
func execute(p *plan.Plan, ctx *Ctx, enumerate, partial bool) outcome {
	e := newExecutor(p, ctx)
	e.enumerate = enumerate
	var o outcome
	if partial {
		var part *Partial
		if part, o.err = e.runPartial(); part != nil {
			o.out = part.describe()
		}
	} else {
		var res *Result
		if res, o.err = e.run(); res != nil {
			o.out = res.describe()
		}
	}
	o.meter = fmt.Sprintf("%+v", ctx.Meter)
	return o
}

// CheckFold holds the fold to the enumerating path on p: at each of
// limits (0 for none), Run gives identical result bytes and RunPartial
// identical group states in an identical order, each with a meter
// identical field by field — or both stop with ErrTimeout, their meters
// still identical. m prices the work.
func CheckFold(t testing.TB, name string, p *plan.Plan, m cost.Model, limits ...float64) {
	t.Helper()
	for _, limit := range limits {
		for _, partial := range []bool{false, true} {
			c1, c2 := &Ctx{Model: m, LimitSeconds: limit}, &Ctx{Model: m, LimitSeconds: limit}
			fused, enum := execute(p, c1, false, partial), execute(p, c2, true, partial)
			if fused.err != nil && !errors.Is(fused.err, ErrTimeout) {
				t.Fatalf("%s: %v", name, fused.err)
			}
			if fused != enum {
				t.Fatalf("%s at limit %v (partial %v): fused and enumerating runs differ\nfused:       %v, meter %s\n%s\nenumerating: %v, meter %s\n%s",
					name, limit, partial, fused.err, fused.meter, fused.out, enum.err, enum.meter, enum.out)
			}
		}
	}
}

// FullSeconds returns p's simulated seconds at no limit, and at no
// limit with a memory budget nothing spills under: its cost with every
// end-of-operator spill bill, and without.
func FullSeconds(t testing.TB, p *plan.Plan, m cost.Model) (full, noSpill float64) {
	t.Helper()
	c := &Ctx{Model: m}
	if _, err := Run(p, c); err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Mem = 0
	c0 := &Ctx{Model: m}
	if _, err := Run(&q, c0); err != nil {
		t.Fatal(err)
	}
	return c.Seconds(), c0.Seconds()
}

// FlipLimits returns two limits around the seconds that the last check
// to test the limit sees on the fused Run of p, within a relative 1e-12:
// the fused run stops with ErrTimeout under the first and completes under
// the second. It returns none when no check tests the limit.
func FlipLimits(t testing.TB, p *plan.Plan, m cost.Model) []float64 {
	t.Helper()
	full, _ := FullSeconds(t, p, m)
	stops := func(limit float64) bool {
		_, err := Run(p, &Ctx{Model: m, LimitSeconds: limit})
		return errors.Is(err, ErrTimeout)
	}
	lo, hi := full*1e-9, full
	if !stops(lo) {
		return nil
	}
	for hi-lo > hi*1e-12 {
		if mid := (lo + hi) / 2; stops(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return []float64{lo, hi}
}

// describe renders a Result to bytes: its columns, then each row's
// values as val.AppendKey encodes them.
func (r *Result) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q\n", r.Cols)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%q\n", row.Key())
	}
	return b.String()
}

// describe renders a Partial in its own order: each group's key and
// every slot field, DISTINCT members sorted by their key bytes, or each
// row of a non-aggregate partial.
func (p *Partial) describe() string {
	var b strings.Builder
	for _, r := range p.rows {
		fmt.Fprintf(&b, "row %q\n", r.Key())
	}
	for i, st := range p.groups {
		fmt.Fprintf(&b, "group %q:", p.keys[i])
		for _, s := range st.slots {
			var members []string
			s.distinct.each(func(v val.Value, _ struct{}) { members = append(members, string(val.AppendKey(nil, v))) })
			sort.Strings(members)
			fmt.Fprintf(&b, " [%d %v %q %q %q]", s.count, s.sum, val.AppendKey(nil, s.min), val.AppendKey(nil, s.max), members)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
