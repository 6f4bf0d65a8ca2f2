package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locater"
	"locater/internal/event"
	"locater/internal/space"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// smoke tests drive the real command line without building a separate
// binary.
const runMainEnv = "LOCATER_GEN_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runGen runs locater-gen with args and returns its standard output.
func runGen(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("locater-gen %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestGenWritesDatasetAndWAL: a tiny dbh run writes the events CSV, the
// building JSON and the truth CSV, and its -wal directory reopens with
// locater.Open holding exactly the CSV's events.
func TestGenWritesDatasetAndWAL(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	out := runGen(t, "-scenario", "dbh", "-days", "2", "-per-class", "1", "-out", dir, "-wal", walDir)
	if !strings.Contains(out, "scenario dbh:") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	ef, err := os.Open(filepath.Join(dir, "dbh-events.csv"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := event.ReadCSV(ef)
	ef.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("events CSV is empty")
	}
	bf, err := os.Open(filepath.Join(dir, "dbh-building.json"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := space.ReadJSON(bf)
	bf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "dbh-truth.csv")); err != nil {
		t.Fatal(err)
	}

	sys, err := locater.Open(walDir, locater.Config{Building: b}, locater.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.NumEvents(); got != len(events) {
		t.Fatalf("WAL reopened with %d events, CSV has %d", got, len(events))
	}
}
