// Command benchmark is LOCATER's one performance benchmark: four named
// workloads against the deployment locater-serve builds, end-to-end metrics
// with tracing off, and a traced run of serial op lists for per-layer
// metrics. See README.md beside this file and BENCHMARK.json at the root of
// the repository.
//
//	go run ./benchmark -workload steady-read -seed 1
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload live-mixed -seed 1 -trace 1
//	go run ./benchmark -workload steady-read -check-noise -runs 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		workload   = flag.String("workload", "", "steady-read | hot-dashboard | live-mixed | import-restart | all")
		seed       = flag.Int64("seed", 1, "seed of every op list (reads, feed dirt, first touches, scored queries); the dataset is the same on every run")
		seconds    = flag.Int("seconds", 10, "length of the timed phase; cycle counts scale with it")
		trace      = flag.Int("trace", 0, "1 = traced run: serial op list, per-layer metrics, trace-<workload>.json")
		out        = flag.String("out", filepath.Join("benchmark", "out"), "directory for data dirs, result-*.json and trace-*.json")
		checkNoise = flag.Bool("check-noise", false, "run the workload 2×-runs times in fresh processes and compare the two sets against the bounds")
		runs       = flag.Int("runs", 3, "with -check-noise: runs per set")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "unknown workload %q; want one of %s or all\n", n, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
	}
	ok := true
	for _, n := range names {
		rc := runConfig{p: fullScale, workload: n, seed: *seed, seconds: *seconds, out: *out}
		if *checkNoise {
			agreed, err := checkNoiseRuns(rc, *trace == 1, *runs)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			ok = ok && agreed
			continue
		}
		var res *runResult
		var err error
		steal := readCPUTimes()
		if *trace == 1 {
			res, err = runTraced(rc)
		} else {
			res, err = run(rc)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		res.aux["host.steal_share"] = value{Value: steal.stealShareSince(), Unit: "ratio"}
		if err := report(res, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// resultFile is result-<workload>.json: the run's metrics with their sample
// counts and where they were measured.
type resultFile struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Reasons   []string         `json:"reasons,omitempty"`
	OpList    string           `json:"oplist_sha256"`
	Commit    string           `json:"git_commit"`
	NProc     int              `json:"nproc"`
	GoVersion string           `json:"go_version"`
	Metrics   metricSet        `json:"metrics"`
	Aux       map[string]value `json:"aux,omitempty"`
}

// report prints every metric by name with its unit, writes the result file,
// and ends with the contract's JSON line.
func report(res *runResult, out string) error {
	defs := endToEnd
	if res.traced {
		defs = perLayer
	}
	res.metrics.fill(defs)
	fmt.Printf("# %s seed=%d seconds=%d trace=%t oplist=%s\n", res.workload, res.seed, res.seconds, res.traced, res.oplist)
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("%-44s %16.6g %-6s n=%d\n", d.Name, v.Value, v.Unit, v.Samples)
	}
	aux := make([]string, 0, len(res.aux))
	for name := range res.aux {
		aux = append(aux, name)
	}
	sort.Strings(aux)
	for _, name := range aux {
		v := res.aux[name]
		fmt.Printf("%-44s %16.6g %-6s n=%d (aux)\n", name, v.Value, v.Unit, v.Samples)
	}
	for _, r := range res.reasons {
		fmt.Println("FAILED:", r)
	}

	rf := resultFile{
		Workload: res.workload, Seed: res.seed, Seconds: res.seconds, Traced: res.traced,
		Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Reasons: res.reasons,
		OpList: res.oplist, Commit: gitCommit(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Metrics: res.metrics, Aux: res.aux,
	}
	name := "result-" + res.workload + ".json"
	if res.traced {
		name = "result-" + res.workload + "-traced.json"
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, name), append(b, '\n'), 0o644); err != nil {
		return err
	}

	// The contract's line carries value and unit only.
	line := resultLine{Correct: res.correct(), Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: metricSet{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{Value: res.metrics[d.Name].Value, Unit: d.Unit}
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// gitCommit names the measured commit, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuTimes is the machine's cumulative busy and stolen CPU time, in clock
// ticks, from /proc/stat; zero where that file does not exist.
type cpuTimes struct{ busy, steal float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	num := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v }
	return cpuTimes{busy: num(1) + num(2) + num(3) + num(6) + num(7), steal: num(8)}
}

// stealShareSince is the share of the CPU time this machine wanted since t
// that the hypervisor gave to someone else. A sandbox run with a large share
// measured the neighbours, not the program: its timings read slow however
// the program behaves (README.md, "What the sandbox does not measure").
func (t cpuTimes) stealShareSince() float64 {
	now := readCPUTimes()
	return safeDiv(now.steal-t.steal, (now.busy-t.busy)+(now.steal-t.steal))
}
