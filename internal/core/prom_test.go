package core

import (
	"math"
	"net/http/httptest"
	"testing"
)

// TestPromFormat pins the exposition format the daemons' /metrics
// handlers share: family headers, label escaping of exactly backslash,
// double quote and newline (a tab stays raw, unlike strconv.Quote),
// integral values as integers, and the -1 clamp for infinite quantiles.
func TestPromFormat(t *testing.T) {
	var p Prom
	p.Family("x_total", "counter", "Things.")
	p.Sample("x_total", 1e6, "tenant", "a\"b\\c\nd\te", "reason", "r")
	p.Sample("x_total", 3)
	p.Family("y_seconds", "gauge", "Latency.")
	p.Sample("y_seconds", 0.25)
	p.Sample("y_seconds", FiniteOrNeg(math.Inf(1)))
	p.Sample("y_seconds", FiniteOrNeg(math.NaN()))
	p.Sample("y_seconds", 1e300)
	rec := httptest.NewRecorder()
	p.Serve(rec)
	want := "# HELP x_total Things.\n# TYPE x_total counter\n" +
		"x_total{tenant=\"a\\\"b\\\\c\\nd\te\",reason=\"r\"} 1000000\n" +
		"x_total 3\n" +
		"# HELP y_seconds Latency.\n# TYPE y_seconds gauge\n" +
		"y_seconds 0.25\ny_seconds -1\ny_seconds -1\ny_seconds 1e+300\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition:\ngot  %q\nwant %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type %q", ct)
	}
}
