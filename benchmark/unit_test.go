package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// The percentile rule: a tail percentile with fewer than ten samples
// beyond it is refused.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := percentile(xs, 0.95)
	if v != 95 || beyond != 5 {
		t.Fatalf("p95 of 1..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	if supported(beyond) {
		t.Errorf("p95 over 100 samples has %d beyond and must be refused", beyond)
	}
	xs = make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	v, beyond = percentile(xs, 0.95)
	if v != 190 || beyond != 10 || !supported(beyond) {
		t.Errorf("p95 of 200 samples = %v with %d beyond (supported %v), want 190, 10, true", v, beyond, supported(beyond))
	}
	if _, beyond := percentile(xs, 0.5); !supported(beyond) {
		t.Errorf("the median of 200 samples must be supported")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1, 4.5", q1, q3)
	}
}

// Open-phase latency is counted from the due time: a handler that
// sleeps once raises the latency of the requests queued behind it, not
// only its own.
func TestOpenLatencyFromDueTime(t *testing.T) {
	const stall = 100 * time.Millisecond
	do := func(pos int) (time.Time, bool) {
		if pos == 0 {
			time.Sleep(stall)
		}
		return time.Now(), true
	}
	p := runOpen(1, 10, 200, do) // one sender, a request due every 5 ms
	if p.lat[0] < stall {
		t.Fatalf("the stalled request took %v, want at least %v", p.lat[0], stall)
	}
	// Requests 1..9 were due 5..45 ms after the first and could not be
	// sent before the stall ended: each waited at least stall - due.
	for i := 1; i < 10; i++ {
		want := stall - time.Duration(i)*5*time.Millisecond
		if p.lat[i] < want {
			t.Errorf("request %d queued behind the stall took %v, want at least %v", i, p.lat[i], want)
		}
	}
	// A sender that was busy is not the generator being late.
	if p.late[5] > 20*time.Millisecond {
		t.Errorf("request 5 was issued as soon as the sender was free, yet generator lateness reads %v", p.late[5])
	}
	// Counted from the send instead, those requests would look instant.
	if d := p.done[5].Sub(p.start[5]); d > 20*time.Millisecond {
		t.Errorf("request 5 took %v from its send; the delay must come from the due time", d)
	}
}

// The closed phase issues every position exactly once.
func TestClosedIssuesEachPositionOnce(t *testing.T) {
	seen := make([]int32, 500)
	p := runClosed(4, len(seen), func(pos int) (time.Time, bool) {
		seen[pos]++ // each position is taken by exactly one client
		return time.Now(), pos != 7
	})
	for pos, n := range seen {
		if n != 1 {
			t.Fatalf("position %d issued %d times", pos, n)
		}
	}
	if p.failed != 1 {
		t.Errorf("failed = %d, want 1", p.failed)
	}
}

// Segments are equal runs of whole cycles, and their medians shrug off
// one spoiled segment.
func TestSegmentMedians(t *testing.T) {
	for cycles, want := range map[int]int{0: 1, 1: 1, 7: 7, 12: 6, 160: 8, 11: 1} {
		if got := segmentsOf(cycles); got != want {
			t.Errorf("segmentsOf(%d) = %d, want %d", cycles, got, want)
		}
	}
	lat := make([]float64, 40) // four segments of ten ops, 1 ms each
	for i := range lat {
		lat[i] = 1
	}
	lat[35] = 500 // one stalled op in the last segment
	walls := []time.Duration{time.Second, time.Second, time.Second, 5 * time.Second}
	ops, tail, _ := segmentMedians(lat, walls)
	if ops != 10 || tail != 1 {
		t.Errorf("medians over segments = %v ops/s, %v ms; want 10 and 1", ops, tail)
	}
}

// Same seed, same schedule; another seed, another order of the same
// draws.
func TestScheduleDeterminism(t *testing.T) {
	cycle := make([]int, 60)
	for i := range cycle {
		cycle[i] = i
	}
	a, b, c := makeSchedule(7, cycle, 3), makeSchedule(7, cycle, 3), makeSchedule(8, cycle, 3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	for k := 0; k < 3; k++ {
		count := make(map[int]int)
		for _, q := range c[k*60 : (k+1)*60] {
			count[q]++
		}
		if len(count) != 60 {
			t.Errorf("cycle %d holds %d distinct entries, want every one of 60 once", k, len(count))
		}
	}
	if !reflect.DeepEqual(adviseSchedule(3, 5, 2), adviseSchedule(3, 5, 2)) {
		t.Error("the advise schedule is not a function of its seed")
	}
}

// A cycle weighs its classes equally whatever their sizes.
func TestMixWeighsClassesEqually(t *testing.T) {
	w, err := workloadNamed("serve-shard")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]string, poolSize)
	for i := range pool {
		pool[i] = "q" + string(rune('A'+i))
	}
	queries, cycle := w.mix(map[string][]string{"NREF2J": pool})
	if len(queries) != poolSize+len(shardQueries) {
		t.Fatalf("%d queries, want %d", len(queries), poolSize+len(shardQueries))
	}
	fromPool := 0
	for _, qi := range cycle {
		if qi < poolSize {
			fromPool++
		}
	}
	if fromPool*2 != len(cycle) {
		t.Errorf("%d of %d draws come from the pool, want half", fromPool, len(cycle))
	}
}

// Self time on a hand-built tree: a parent minus the union of what its
// children cover, children clipped to the parent, overlaps counted once.
func TestSelfTimeSubtraction(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "gateway", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "gateway.b", Start: 50, End: 70}, // overlaps span 3 by 10
		{ID: 5, Parent: 3, Name: "engine", Start: 55, End: 65},    // sticks out of span 3 by 5
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 20, 2: 30, 3: 35, 4: 20, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// BENCHMARK.json repeats the workload and metric tables of this
// package; the two must not drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the sizes are frozen at %d", b.RunSeconds, refSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, e := range e2eMetrics {
		g := b.EndToEnd[i]
		if g.Name != e.name || g.Unit != e.unit || g.Better != e.better || g.Bound != e.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, g, e)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, p := range perLayerMetrics {
		if g := b.PerLayer[i]; g.Name != p.name || g.Unit != p.unit || g.Better != p.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, g, p)
		}
	}
}
