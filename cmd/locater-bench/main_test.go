package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"locater/internal/experiments"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// smoke test drives the real command line without building a separate
// binary.
const runMainEnv = "LOCATER_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestListPrintsEveryExperiment: -list prints one line per experiment,
// each led by the experiment's name, and runs nothing.
func TestListPrintsEveryExperiment(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-list")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("locater-bench -list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	all := experiments.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d experiments:\n%s", len(lines), len(all), out)
	}
	for i, d := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != d.Name {
			t.Errorf("line %d = %q, want experiment %s", i, lines[i], d.Name)
		}
	}
}
