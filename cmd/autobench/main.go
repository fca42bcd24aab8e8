// Command autobench regenerates the paper's tables and figures.
//
// Usage:
//
//	autobench [-scale f] [-seed n] [-size n] [-parallel n] [-exp id[,id...]] [-list]
//
// With no -exp it runs every experiment in paper order. Experiment IDs
// are listed by -list (fig1..fig11, table1..table3, lowerbounds,
// insertions, families, goals, and the ablations).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.0005, "data scale factor relative to the paper's databases")
	seed := flag.Int64("seed", 42, "generator seed")
	size := flag.Int("size", 100, "queries per workload sample")
	parallel := flag.Int("parallel", 0, "workload query parallelism (0 = GOMAXPROCS, 1 = sequential)")
	exp := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outDir := flag.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
	flag.Parse()

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "autobench: -parallel must be >= 0, got %d (0 = GOMAXPROCS, 1 = sequential)\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintf(os.Stderr, "autobench: -scale must be positive, got %g\n", *scale)
		flag.Usage()
		os.Exit(2)
	}
	if *size <= 0 {
		fmt.Fprintf(os.Stderr, "autobench: -size must be positive, got %d\n", *size)
		flag.Usage()
		os.Exit(2)
	}
	if *list && *exp != "" {
		fmt.Fprintln(os.Stderr, "autobench: -list and -exp are mutually exclusive (-list only prints the ids)")
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}

	lab := bench.NewLab(*scale, *seed)
	lab.WorkloadSize = *size
	lab.Parallelism = *parallel

	var selected []bench.Experiment
	if *exp == "" {
		selected = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := bench.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("==== %s: %s\n\n", e.ID, e.Title)
		out, err := e.Run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("---- %s done in %.1fs (wall)\n\n", e.ID, time.Since(start).Seconds())
		if *outDir != "" {
			path := filepath.Join(*outDir, e.ID+".txt")
			content := "# " + e.Title + "\n\n" + out + "\n"
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}
