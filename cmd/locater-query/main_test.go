package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/sim"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// smoke test drives the real command line without building a separate
// binary.
const runMainEnv = "LOCATER_QUERY_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeDataset writes a tiny dbh dataset in locater-gen's file layout and
// returns the events CSV and building JSON paths plus the dataset.
func writeDataset(t *testing.T) (eventsPath, buildingPath string, ds *sim.Dataset) {
	t.Helper()
	sc, err := sim.DBH(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err = sim.Generate(sc.Config(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC), 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eventsPath = filepath.Join(dir, "dbh-events.csv")
	buildingPath = filepath.Join(dir, "dbh-building.json")
	ef, err := os.Create(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := event.WriteCSV(ef, ds.Events); err != nil {
		t.Fatal(err)
	}
	if err := ef.Close(); err != nil {
		t.Fatal(err)
	}
	bf, err := os.Create(buildingPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Building.WriteJSON(bf); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	return eventsPath, buildingPath, ds
}

func runQuery(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestQueryTimePrintsOneAnswer: -time against a generated dataset prints
// the load summary and exactly one answer line for the device.
func TestQueryTimePrintsOneAnswer(t *testing.T) {
	eventsPath, buildingPath, ds := writeDataset(t)
	dev := string(ds.Events[0].Device)
	out, err := runQuery("-events", eventsPath, "-building", buildingPath,
		"-device", dev, "-time", "2026-01-06 11:30:00")
	if err != nil {
		t.Fatalf("locater-query: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "loaded ") {
		t.Fatalf("want a load line and one answer, got:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "2026-01-06 11:30:00  "+dev+" → ") {
		t.Fatalf("answer line %q is not for the queried device and time", lines[1])
	}
}

// TestQueryRejectsUnknownVariant: a -variant other than independent or
// dependent fails instead of silently running the dependent model.
func TestQueryRejectsUnknownVariant(t *testing.T) {
	eventsPath, buildingPath, ds := writeDataset(t)
	out, err := runQuery("-events", eventsPath, "-building", buildingPath,
		"-device", string(ds.Events[0].Device), "-time", "2026-01-06 11:30:00", "-variant", "bogus")
	if err == nil || !strings.Contains(out, `unknown variant "bogus"`) {
		t.Fatalf("-variant bogus: err = %v, output:\n%s", err, out)
	}
}
