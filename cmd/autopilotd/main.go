// Command autopilotd serves a continuous stream of family queries while
// an autonomic controller keeps the configuration tuned — the online
// counterpart of the batch autobench. It exposes /metrics and /healthz
// over HTTP for the duration of the run.
//
// Usage:
//
//	autopilotd [-windows n] [-drift] [-compare] [-sync] [-static] ...
//
// With -windows 0 (default) it streams until interrupted; a positive
// -windows runs a bounded, CI-friendly session. -drift shifts the family
// mixture at -drift-at, which is the headline experiment: watch the goal
// verdict decay under the stale configuration and recover after the
// controller's retune. -compare repeats the identical stream against a
// static baseline that never retunes and prints both side by side.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/autopilot"
	"repro/internal/core"
)

// parseShares parses "NREF2J:0.9,NREF3J:0.1".
func parseShares(s string) ([]autopilot.FamilyShare, error) {
	var out []autopilot.FamilyShare
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wt, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("family share %q: want NAME:WEIGHT", part)
		}
		w, err := strconv.ParseFloat(wt, 64)
		if err != nil {
			return nil, fmt.Errorf("family share %q: %v", part, err)
		}
		out = append(out, autopilot.FamilyShare{Family: name, Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no family shares in %q", s)
	}
	return out, nil
}

func main() {
	opts, addr, compare, outFile := parseArgs(os.Args[1:])
	if err := run(opts, addr, compare, outFile); err != nil {
		fmt.Fprintln(os.Stderr, "autopilotd:", err)
		os.Exit(1)
	}
}

// parseArgs turns the command line into run's arguments; a bad or
// nonsensical flag is a usage error (exit 2).
func parseArgs(args []string) (opts autopilot.Options, addr string, compare bool, outFile string) {
	fs := flag.NewFlagSet("autopilotd", flag.ExitOnError)
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		fs.Usage()
		os.Exit(2)
	}
	system := fs.String("system", "B", "engine profile (A, B or C)")
	rec := fs.String("recommender", "", "tuner profile: A, B, C or 1C (default: -system)")
	families := fs.String("families", "NREF2J:0.9,NREF3J:0.1", "initial mixture as NAME:WEIGHT,...")
	drift := fs.Bool("drift", false, "shift the family mixture mid-run")
	driftAt := fs.Int("drift-at", 2, "window at which the mixture shifts")
	driftTo := fs.String("drift-to", "NREF2J:0.1,NREF3J:0.9", "post-drift mixture as NAME:WEIGHT,...")
	scale := fs.Float64("scale", 0.0002, "data scale factor relative to the paper's databases")
	seed := fs.Int64("seed", 42, "generator seed")
	pool := fs.Int("pool", 30, "per-family query pool size")
	window := fs.Int("window", 24, "queries per observation window")
	windows := fs.Int("windows", 0, "number of windows to run (0 = stream until interrupted)")
	parallel := fs.Int("parallel", 0, "query parallelism within a window (0 = GOMAXPROCS)")
	goalSpec := fs.String("goal", "60:0.50,400:0.95", "QoS goal as SECONDS:FRACTION,... (empty = the paper's Example 2)")
	threshold := fs.Float64("mix-threshold", 0.25, "mixture shift detection threshold (moved probability mass)")
	timeout := fs.Float64("timeout", core.DefaultTimeout, "per-query simulated timeout in seconds")
	syncT := fs.Bool("sync", false, "apply transitions at window boundaries (deterministic) instead of overlapping traffic")
	static := fs.Bool("static", false, "freeze the configuration after warmup (decaying baseline)")
	noWarmup := fs.Bool("no-warmup", false, "skip the initial warmup tune (start serving under P)")
	fs.BoolVar(&compare, "compare", false, "also run the static baseline on the identical stream and print both")
	fs.StringVar(&addr, "addr", ":9090", "HTTP listen address for /metrics and /healthz (empty = disabled)")
	fs.StringVar(&outFile, "o", "", "also write the per-window table artifact to this file")
	fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	if *windows < 0 {
		usageErr("autopilotd: -windows must be >= 0, got %d", *windows)
	}
	if *window <= 0 {
		usageErr("autopilotd: -window must be positive, got %d", *window)
	}
	if *parallel < 0 {
		usageErr("autopilotd: -parallel must be >= 0, got %d", *parallel)
	}

	// Nonsensical flag combinations are usage errors, not silent surprises.
	if *drift && *windows == 0 {
		usageErr("autopilotd: -drift needs a bounded run (-windows > 0) so the shift window exists")
	}
	if *drift && *driftAt >= *windows {
		usageErr("autopilotd: -drift-at %d never fires in a %d-window run (need -drift-at < -windows)", *driftAt, *windows)
	}
	if *drift && *driftAt < 0 {
		usageErr("autopilotd: -drift-at must be >= 0, got %d", *driftAt)
	}
	fs.Visit(func(fl *flag.Flag) {
		if !*drift && (fl.Name == "drift-at" || fl.Name == "drift-to") {
			usageErr("autopilotd: -%s has no effect without -drift", fl.Name)
		}
	})
	if compare && !*syncT {
		usageErr("autopilotd: -compare needs -sync: with overlapped retunes the two streams are not window-aligned, so the comparison is meaningless")
	}
	if compare && *static {
		usageErr("autopilotd: -compare with -static would compare the frozen baseline against itself")
	}

	shares, err := parseShares(*families)
	if err != nil {
		usageErr("autopilotd: %v", err)
	}
	if *rec == "" {
		*rec = *system
	}
	opts = autopilot.Options{
		System:            *system,
		Recommender:       *rec,
		Families:          shares,
		Scale:             *scale,
		Seed:              *seed,
		PoolSize:          *pool,
		WindowSize:        *window,
		Windows:           *windows,
		Parallelism:       *parallel,
		MixShiftThreshold: *threshold,
		Timeout:           *timeout,
		Sync:              *syncT,
		Static:            *static,
		Warmup:            !*noWarmup,
	}
	if *goalSpec != "" {
		if opts.Goal, err = core.ParseGoal(*goalSpec); err != nil {
			usageErr("autopilotd: %v", err)
		}
	}
	if *drift {
		to, err := parseShares(*driftTo)
		if err != nil {
			usageErr("autopilotd: %v", err)
		}
		opts.Drift = &autopilot.Drift{AtWindow: *driftAt, Shares: to}
	}
	return opts, addr, compare, outFile
}

// run drives one daemon lifetime with the shutdown ordering contract:
// the control loop drains first (ap.Run joins any in-flight retune
// before returning, so no transition is abandoned mid-build), artifacts
// are written second, and the metrics listener closes last — deferred,
// so it happens on error paths too.
func run(opts autopilot.Options, addr string, compare bool, outFile string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("autopilotd: loading %s-profile engine at scale %g (seed %d)...\n", opts.System, opts.Scale, opts.Seed)
	start := time.Now()
	ap, err := autopilot.New(opts)
	if err != nil {
		return err
	}
	fmt.Printf("autopilotd: ready in %.1fs\n", time.Since(start).Seconds())

	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: ap.Metrics().Handler()}
		// conflint:worker lifecycle=external metrics server lives for the whole process; the deferred srv.Shutdown below stops it
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "autopilotd: metrics server:", err)
			}
		}()
		fmt.Printf("autopilotd: serving /metrics and /healthz on http://%s\n", ln.Addr())
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := srv.Shutdown(shCtx); err != nil {
				fmt.Fprintln(os.Stderr, "autopilotd: metrics shutdown:", err)
			}
		}()
	}

	runStart := time.Now()
	reports, retunes, err := ap.Run(ctx)
	wall := time.Since(runStart).Seconds()
	if err != nil {
		return err
	}

	table := autopilot.RenderTable(reports, retunes)
	fmt.Println()
	fmt.Println(table)

	if compare {
		fmt.Println("autopilotd: running static baseline on the identical stream...")
		sOpts := opts
		sOpts.Static = true
		sap, err := autopilot.New(sOpts)
		if err != nil {
			return err
		}
		sReports, _, err := sap.Run(ctx)
		if err != nil {
			return err
		}
		cmp := autopilot.RenderComparison(reports, sReports)
		fmt.Println()
		fmt.Println(cmp)
		table += "\n== autopilot vs static baseline ==\n\n" + cmp
	}

	snap := ap.Metrics().Snapshot()
	fmt.Printf("autopilotd: %d windows, %d queries, %d retunes (%d structures built, %d dropped) in %.1fs wall\n",
		snap.WindowsCompleted, snap.QueriesServed, snap.RetunesApplied,
		snap.StructuresBuilt, snap.StructuresDropped, wall)

	if outFile != "" {
		if err := os.WriteFile(outFile, []byte(table), 0o644); err != nil {
			return err
		}
	}
	return nil
}
