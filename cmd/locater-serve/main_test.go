package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locater"
	"locater/internal/sim"
)

// runMainEnv makes the test binary run main instead of the tests, so the
// flag tests drive the real command line without building a separate
// binary.
const runMainEnv = "LOCATER_SERVE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownVariantExits2: a -variant other than independent or dependent
// is a usage error (exit 2) before anything is loaded or served, not a
// silent dependent deployment.
func TestUnknownVariantExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-building", filepath.Join(t.TempDir(), "missing.json"), "-variant", "indepedent")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), `unknown -variant "indepedent"`) {
		t.Fatalf("output does not name the bad variant:\n%s", out)
	}
}

func testBuilding(t *testing.T, name string) *locater.Building {
	t.Helper()
	b, err := sim.GridBuilding(name, 12, 3, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOpenDeploymentOneBuildingIsSystem(t *testing.T) {
	b := testBuilding(t, "alpha")
	for _, dataDir := range []string{"", t.TempDir()} {
		sys, err := openDeployment(locater.Config{Building: b}, dataDir, locater.PersistOptions{})
		if err != nil {
			t.Fatalf("data dir %q: %v", dataDir, err)
		}
		if _, _, _, durable := sys.PersistStats(); durable != (dataDir != "") {
			t.Errorf("data dir %q: durable = %v", dataDir, durable)
		}
		if sys.Building() != b {
			t.Errorf("data dir %q: serving %s, want %s", dataDir, sys.Building().Name(), b.Name())
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenDeploymentRefusesShardLayout: a data dir written by a
// multi-building server holds shard-NNN subdirectories and no log of its
// own. Opening it as one building would serve an empty store, so it is
// refused with an error that names the shard directories, and nothing is
// written beside them.
func TestOpenDeploymentRefusesShardLayout(t *testing.T) {
	dataDir := t.TempDir()
	shards := []string{filepath.Join(dataDir, "shard-000"), filepath.Join(dataDir, "shard-001")}
	for _, d := range shards {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := openDeployment(locater.Config{Building: testBuilding(t, "alpha")}, dataDir, locater.PersistOptions{})
	if err == nil {
		sys.Close()
		t.Fatal("a multi-building data dir opened as one building")
	}
	for _, d := range shards {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q does not name %s", err, d)
		}
	}
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(shards) {
		t.Errorf("refused data dir holds %d entries, want the %d shards only", len(entries), len(shards))
	}
}
