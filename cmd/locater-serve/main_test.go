package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locater"
	"locater/internal/cluster"
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
		sys, err := openDeployment([]*locater.Building{b}, locater.Config{}, dataDir, locater.PersistOptions{})
		if err != nil {
			t.Fatalf("data dir %q: %v", dataDir, err)
		}
		if _, ok := sys.(*locater.System); !ok {
			t.Errorf("data dir %q: one building assembled %T, want *locater.System", dataDir, sys)
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
		if dataDir != "" {
			if _, err := os.Stat(cluster.ShardDir(dataDir, 0)); !os.IsNotExist(err) {
				t.Errorf("one-building deployment created a shard directory (stat: %v)", err)
			}
		}
	}
}

func TestOpenDeploymentTwoBuildingsIsCluster(t *testing.T) {
	buildings := []*locater.Building{testBuilding(t, "alpha"), testBuilding(t, "beta")}
	dataDir := filepath.Join(t.TempDir(), "data")
	sys, err := openDeployment(buildings, locater.Config{}, dataDir, locater.PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	c, ok := sys.(*cluster.Cluster)
	if !ok {
		t.Fatalf("two buildings assembled %T, want *cluster.Cluster", sys)
	}
	if n := c.NumShards(); n != 2 {
		t.Fatalf("%d shards, want 2", n)
	}
	for i, b := range buildings {
		if got := c.Shard(i).Building(); got != b {
			t.Errorf("shard %d serves %s, want %s", i, got.Name(), b.Name())
		}
		if fi, err := os.Stat(filepath.Join(dataDir, []string{"shard-000", "shard-001"}[i])); err != nil || !fi.IsDir() {
			t.Errorf("shard %d directory: %v", i, err)
		}
	}
}

func TestOpenDeploymentRefusesSharedAccessPoint(t *testing.T) {
	buildings := []*locater.Building{testBuilding(t, "alpha"), testBuilding(t, "alpha")}
	sys, err := openDeployment(buildings, locater.Config{}, "", locater.PersistOptions{})
	if err == nil {
		sys.Close()
		t.Fatal("buildings sharing an access point were accepted")
	}
	if !strings.Contains(err.Error(), "alpha-wap01") {
		t.Errorf("error %q does not name the shared access point", err)
	}
}
