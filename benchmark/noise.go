package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// checkNoiseRuns backs the benchmark's own acceptance rule: it runs the
// workload in two sets of `runs` fresh processes (fresh data directories, one
// seed) and prints, per metric, each set's median, the extremes, the quartile
// spread as a share of the median, and the bound. It reports disagreement
// when the two medians differ by more than the bound in either direction,
// when a set's spread exceeds the bound, or — in a traced run — when a count
// metric does not repeat exactly.
func checkNoiseRuns(rc runConfig, traced bool, runs int) (bool, error) {
	if runs < 2 {
		return false, fmt.Errorf("-check-noise needs -runs of at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sets := make([][]metricSet, 2)
	for set := range sets {
		for i := 0; i < runs; i++ {
			trace := "0"
			if traced {
				trace = "1"
			}
			cmd := exec.Command(exe, "-workload", rc.workload, "-seed", strconv.FormatInt(rc.seed, 10),
				"-seconds", strconv.Itoa(rc.seconds), "-trace", trace, "-out", rc.out)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("set %d run %d: %w\n%s", set, i, err, out)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return false, fmt.Errorf("set %d run %d: last line is not a result: %w", set, i, err)
			}
			if !line.Correct {
				return false, fmt.Errorf("set %d run %d: the run reported incorrect answers", set, i)
			}
			sets[set] = append(sets[set], line.Metrics)
			fmt.Fprintf(os.Stderr, "check-noise: %s set %d run %d done\n", rc.workload, set+1, i+1)
		}
	}

	fmt.Printf("# check-noise %s: 2 sets × %d runs, seed %d, trace=%t\n", rc.workload, runs, rc.seed, traced)
	fmt.Printf("%-44s %-6s %12s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "median_1", "median_2", "min", "max", "spread", "shift", "bound")
	agreed := true
	for _, d := range defs {
		var a, b []float64
		for _, m := range sets[0] {
			a = append(a, m[d.Name].Value)
		}
		for _, m := range sets[1] {
			b = append(b, m[d.Name].Value)
		}
		all := append(append([]float64(nil), a...), b...)
		lo, hi := all[0], all[0]
		for _, v := range all {
			lo, hi = min(lo, v), max(hi, v)
		}
		ma, mb := median(a), median(b)
		spread := 0.0
		for _, set := range [][]float64{a, b} {
			q1, q3 := quartiles(set)
			spread = max(spread, safeDiv(q3-q1, median(set)))
		}
		// shift is the second set's median against the first's; two sets of
		// one commit disagree when it passes the bound in either direction.
		shift := safeDiv(mb-ma, ma)
		verdict := ""
		switch {
		case d.Bound > 0 && math.Abs(shift) > d.Bound:
			verdict = "  SHIFT BEYOND BOUND"
		case d.Bound > 0 && spread > d.Bound:
			verdict = "  SPREAD BEYOND BOUND"
		case traced && d.exact && lo != hi:
			verdict = "  COUNT DOES NOT REPEAT"
		}
		if verdict != "" {
			agreed = false
		}
		fmt.Printf("%-44s %-6s %12.6g %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%%s\n",
			d.Name, d.Unit, ma, mb, lo, hi, 100*spread, 100*shift, 100*d.Bound, verdict)
	}
	return agreed, nil
}
