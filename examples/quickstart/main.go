// Quickstart: build a small NREF database, run the paper's Example 1
// query under the baseline configurations, and compare the simulated
// elapsed times.
//
//	go run ./examples/quickstart
//
// Its output is testdata/output.txt, byte for byte (main_test.go).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
)

// example1 is the paper's Example 1: protein sequences per taxon for a
// virus that infects apes.
const example1 = `
SELECT t.lineage, COUNT(DISTINCT t2.nref_id)
FROM source s, taxonomy t, taxonomy t2
WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage
  AND s.p_name = 'Simian Virus 40'
GROUP BY t.lineage`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 1/2000-scale synthetic NREF instance; the simulated clock bills
	// all work as if the database were at the paper's full size.
	const scale = 0.0005
	e := engine.New(catalog.NREF(), scale, engine.SystemA())
	if err := datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: scale, Seed: 42}); err != nil {
		return err
	}
	e.CollectStats()

	// Configuration P: primary-key indexes only.
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		return err
	}
	res, mP, err := e.Run(example1, 1800)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "P  (PK indexes only):     %7.1fs simulated, %d result rows\n", mP.Seconds, len(res.Rows))

	// Configuration 1C: one single-column index per indexable column.
	rep, err := e.ApplyConfig(engine.OneColumnConfiguration(e))
	if err != nil {
		return err
	}
	res, m1C, err := e.Run(example1, 1800)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "1C (all 1-column indexes): %6.1fs simulated, %d result rows\n", m1C.Seconds, len(res.Rows))
	fmt.Fprintf(w, "\n1C adds %.1f GB of indexes (built in %.0f simulated minutes)\n",
		float64(rep.IndexBytes)/(1<<30), rep.BuildSeconds/60)
	fmt.Fprintf(w, "speedup of 1C over P on Example 1: %.1fx\n", mP.Seconds/m1C.Seconds)

	fmt.Fprintln(w, "\nfirst result rows:")
	for i, r := range res.Rows {
		if i == 5 {
			fmt.Fprintln(w, "  ...")
			break
		}
		fmt.Fprintf(w, "  %v\n", r)
	}
	return nil
}
