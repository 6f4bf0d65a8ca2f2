package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locater"
	"locater/internal/cluster"
	"locater/internal/sim"
)

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
