// Command benchmark is the repo's wall-clock benchmark: one command
// runs one named workload, checks every answer, and prints every metric
// by name with its unit. See README.md in this directory.
//
//	go run . -workload serve-mix -seed 1            # end-to-end metrics
//	go run . -workload serve-mix -seed 1 -trace 1   # per-layer metrics
//	go run . -smoke                                 # every workload at 1/20 size
//	go run . -repeat 5                              # spread of every metric × workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric's name to its value.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the run's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "request-schedule seed (never reaches the data or the system)")
	seconds := flag.Int("seconds", refSeconds, "nominal measuring time; phase sizes scale with it")
	trace := flag.Int("trace", 0, "1 runs the traced, serial, per-layer run instead of the end-to-end one")
	smoke := flag.Bool("smoke", false, "run every workload at one-twentieth size, no bounds applied")
	repeat := flag.Int("repeat", 0, "run N full sets (one child process per run) and print each metric's spread")
	outDir := flag.String("out", "out", "directory for the traced run's span dump")
	writeExpected := flag.Bool("write-expected", false, "rewrite expected.json from this build's answers (all workloads)")
	benchmarkJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json from this package's workload and metric tables")
	flag.Parse()

	var err error
	switch {
	case *writeExpected:
		err = rewriteExpected()
	case *benchmarkJSON:
		err = printBenchmarkJSON()
	case *smoke:
		err = runSmoke()
	case *repeat > 0:
		err = runRepeat(*repeat, *seed, *seconds)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// environment is the line that says where the numbers come from.
func environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// runOne runs one workload once and prints its result line last. A run
// whose answers or digests disagree prints the line with correct=false
// and then fails.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	w, err := workloadNamed(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	fmt.Printf("benchmark %s seed=%d seconds=%d trace=%v %s\n", w.name, seed, seconds, traced, environment())
	fmt.Printf("why: %s\n", w.why)
	var res result
	if traced {
		out, tl, err := runTraced(w, seed, seconds, outDir)
		if err != nil {
			return err
		}
		res = result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: out}
	} else if res, err = runEndToEnd(w, seed, w.sizesFor(seconds, false)); err != nil {
		return err
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or disagree with expected.json", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func runEndToEnd(w *workload, seed int64, sz sizes) (result, error) {
	// What either kind of workload yields: the closed phase's per-op
	// latencies, how many of them failed, its wall and allocation, the
	// set-up time, and the totals for the result line.
	var lat []float64
	var setupS, allocKB float64
	var wall time.Duration
	var walls []time.Duration // of the closed phase's segments
	var attempted, failed int
	var digests map[string]string
	what := "case cycles, 1 caller"
	if w.serving() {
		run, err := runServing(w, seed, sz, nil)
		if err != nil {
			return result{}, err
		}
		lat, wall = msOf(run.closed.lat), run.closed.wall
		walls = run.closed.segmentWalls(segmentsOf(int(sz.closed)))
		setupS, allocKB = run.setupS, run.allocKB
		attempted, failed, digests = run.attempts, run.failed, run.digests
		what = fmt.Sprintf("requests, %d clients", clients())

		open := msOf(run.open.lat)
		p95, beyond := percentile(open, 0.95)
		late, _ := percentile(msOf(run.open.late), 0.95)
		fmt.Printf("open:   %d requests at %g/s from %d senders, wall %.3f s; latency from due time p50 %.3f ms p95 %.3f ms (%d beyond%s); generator late p95 %.3f ms\n",
			len(open), w.rate, openSenders(), run.open.wall.Seconds(), median(open), p95, beyond, unsupportedNote(beyond), late)
		if run.retunes != nil {
			took := run.retunes.transitionMS()
			slowest, _ := percentile(took, 1)
			fmt.Printf("retunes: %d, Transition median %.1f ms max %.1f ms\n", len(took), median(took), slowest)
		}
		fmt.Printf("gateway refused %d, GC cycles %d\n", run.refused, run.gc)
	} else {
		run, err := runAdvise(seed, sz, nil)
		if err != nil {
			return result{}, err
		}
		walls = make([]time.Duration, sz.passes) // a segment is one pass over the cases
		for i, cy := range run.cycles {
			lat = append(lat, ms(cy.total))
			walls[i*sz.passes/len(run.cycles)] += cy.total
		}
		wall, setupS, allocKB = run.wall, run.setupS, run.allocKB
		attempted, failed, digests = len(lat), run.failed, run.digests
		fmt.Println("open:   none (an operator waits for each answer, so advise is closed-loop by nature)")
	}
	p95, beyond := percentile(lat, 0.95)
	fmt.Printf("closed: %d %s, wall %.3f s; latency p50 %.3f ms, p95 %.3f ms over %d samples with %d beyond%s\n",
		len(lat), what, wall.Seconds(), median(lat), p95, len(lat), beyond, unsupportedNote(beyond))
	opsPerS, tail5, rates := segmentMedians(lat, walls)
	fmt.Printf("        over the whole phase %.3f ops/s, slowest 5%% mean %.3f ms; ops_per_s and tail5_ms are medians over its %d segments, whose ops/s were %.4g\n",
		float64(len(lat))/wall.Seconds(), tailMean(lat, 0.05), len(walls), rates)
	out := metrics{}
	out.set("setup_s", setupS, "s")
	out.set("ops_per_s", opsPerS, "1/s")
	out.set("tail5_ms", tail5, "ms")
	out.set("alloc_kb_per_op", allocKB, "KiB")

	bad, err := checkDigests(w.name, digests)
	if err != nil {
		return result{}, err
	}
	for _, b := range bad {
		fmt.Println("MISMATCH:", b)
	}
	failed += len(bad)
	fmt.Printf("fail_share %g (%d of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

func unsupportedNote(beyond int) string {
	if supported(beyond) {
		return ""
	}
	return fmt.Sprintf(": fewer than %d, so it reads off the slowest samples and is not a tail estimate", minBeyond)
}

func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %16s  %s\n", "metric", "value", "unit")
	for _, n := range names {
		fmt.Printf("%-40s %16.6g  %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runSmoke runs every workload once at one-twentieth size. No bound is
// applied; every answer and digest is still checked.
func runSmoke() error {
	for _, w := range workloads {
		res, err := runEndToEnd(w, defaultSeed, w.sizesFor(refSeconds, true))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		fmt.Printf("smoke %s: ok, %d ops\n", w.name, res.Attempted)
	}
	return nil
}

// runRepeat runs n full sets, every run in a child process of this same
// binary as the driver would run it, seeds seed..seed+n-1, and prints
// per metric × workload the median, min and max, the quartile spread as
// a share of the median, and whether that is inside the bound.
func runRepeat(n int, seed int64, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → values
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(set)), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			outBytes, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d %s: %w", set, w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("set %d %s: last line: %w", set, w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d %s done\n", set, w.name)
		}
	}
	fmt.Printf("%-13s %-16s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "min", "max", "spread", "bound", "inside")
	for _, w := range workloads {
		for _, e := range e2eMetrics {
			xs := values[w.name][e.name]
			q1, q3 := quartiles(xs)
			med := median(xs)
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			spread := (q3 - q1) / med
			fmt.Printf("%-13s %-16s %12.4f %12.4f %12.4f %8.3f %6.2f  %v\n", w.name, e.name, med, s[0], s[len(s)-1], spread, e.bound, spread <= e.bound)
		}
	}
	return nil
}

// rewriteExpected recomputes every digest at the default seed and
// smoke size and writes expected.json into the current directory.
func rewriteExpected() error {
	exp := map[string]map[string]string{}
	for _, w := range workloads {
		var digests map[string]string
		if w.serving() {
			l, err := setUp(w, nil)
			if err != nil {
				return err
			}
			orc, err := buildOracle(l.cfg, l.queries)
			if cerr := l.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			digests = map[string]string{"answers": orc.digest}
		} else {
			run, err := runAdvise(defaultSeed, sizes{passes: 1, setUps: 1}, nil)
			if err != nil {
				return err
			}
			digests = run.digests
		}
		exp[w.name] = digests
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("expected.json", append(data, '\n'), 0o644)
}

// printBenchmarkJSON writes the repo's BENCHMARK.json from the tables
// in this package, the one place they are maintained.
func printBenchmarkJSON() error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layered struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	b := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []gated   `json:"end_to_end"`
		PerLayer   []layered `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: refSeconds}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, named{w.name, w.why})
	}
	for _, e := range e2eMetrics {
		b.EndToEnd = append(b.EndToEnd, gated{e.name, e.unit, e.better, e.bound})
	}
	for _, p := range perLayerMetrics {
		b.PerLayer = append(b.PerLayer, layered{p.name, p.unit, p.better})
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
