// Command locater-bench regenerates the paper's evaluation tables and
// figures (Section 6) over simulated workloads and prints them in the same
// row/series structure the paper reports. Performance is measured elsewhere:
// `go run ./benchmark` (see benchmark/README.md).
//
// Usage:
//
//	locater-bench                 # run every experiment
//	locater-bench -exp table3     # run one experiment
//	locater-bench -list           # list experiments
//	locater-bench -per-class 8 -days 70 -queries 500 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"locater/internal/experiments"
)

func main() {
	var (
		expName  = flag.String("exp", "", "experiment to run (default: all); see -list")
		list     = flag.Bool("list", false, "list experiments and exit")
		perClass = flag.Int("per-class", 0, "people per predictability class (default 6)")
		days     = flag.Int("days", 0, "simulated days (default 70)")
		queries  = flag.Int("queries", 0, "queries per experiment (default 400)")
		seed     = flag.Int64("seed", 0, "random seed (default 1)")
		slow     = flag.Bool("faithful", false, "verbatim Algorithm 1 (one promotion per self-training round; slower)")
	)
	flag.Parse()

	if *list {
		for _, d := range experiments.All() {
			fmt.Printf("%-8s %s\n", d.Name, d.Description)
		}
		return
	}

	p := experiments.Params{
		PerClass: *perClass,
		Days:     *days,
		Queries:  *queries,
		Seed:     *seed,
		Fast:     !*slow,
	}.WithDefaults()

	drivers := experiments.All()
	if *expName != "" {
		d, ok := experiments.Find(*expName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expName)
			os.Exit(2)
		}
		drivers = []experiments.Driver{d}
	}

	for _, d := range drivers {
		start := time.Now()
		tables, err := d.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", d.Name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", d.Name, time.Since(start).Round(time.Millisecond))
	}
}
