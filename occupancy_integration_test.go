package locater_test

import (
	"reflect"
	"testing"
	"time"

	"locater"
)

// TestOccupancyIndexEquivalentAfterRecovery: the occupancy index is derived
// state, so after a crash (no Close, no Checkpoint) the recovered system's
// WAL replay must rebuild it to answer neighbor-discovery lookups exactly
// like the live system.
func TestOccupancyIndexEquivalentAfterRecovery(t *testing.T) {
	ds := buildDataset(t, 3)
	dir := t.TempDir()

	live := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	// Ingest the second half first so many logs go through the
	// out-of-order (lazy re-sort) path on both the live and replay sides.
	half := len(ds.Events) / 2
	if err := live.Ingest(ds.Events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest(ds.Events[:half]); err != nil {
		t.Fatal(err)
	}

	liveOcc := live.CacheStats().Occupancy
	if liveOcc.Entries == 0 {
		t.Fatalf("live occupancy index not populated: %+v", liveOcc)
	}

	// Crash: recovery must come from the WAL alone.
	recovered := openSystem(t, ds, dir, locater.PersistOptions{Fsync: true})
	defer recovered.Close()

	recOcc := recovered.CacheStats().Occupancy
	if recOcc.Entries != liveOcc.Entries || recOcc.Buckets != liveOcc.Buckets {
		t.Fatalf("recovered index shape %+v, want %+v", recOcc, liveOcc)
	}

	liveStore, recStore := live.StoreForTest(), recovered.StoreForTest()
	aps := ds.Building.AccessPoints()
	for i := 0; i < 24; i++ {
		start := simStart.Add(time.Duration(i*3) * time.Hour)
		end := start.Add(90 * time.Minute)
		want := liveStore.ActiveDevicesAt(nil, start, end)
		if got := recStore.ActiveDevicesAt(nil, start, end); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: recovered ActiveDevices = %v, want %v", i, got, want)
		}
		scope := aps[:1+i%len(aps)]
		wantAt := liveStore.ActiveDevicesAt(scope, start, end)
		if got := recStore.ActiveDevicesAt(scope, start, end); !reflect.DeepEqual(got, wantAt) {
			t.Fatalf("window %d: recovered scoped lookup = %v, want %v", i, got, wantAt)
		}
	}
}

// TestOccupancyIndexServesQueries: the index is populated by ingest and
// neighbor discovery goes through it, as System.CacheStats reports.
func TestOccupancyIndexServesQueries(t *testing.T) {
	ds := buildDataset(t, 2)
	sys := newSystem(t, ds, locater.Config{Building: ds.Building})
	q := sampleQueries(ds, 1)[0]
	if _, err := sys.Locate(q.Device, q.Time); err != nil {
		t.Fatal(err)
	}
	occ := sys.CacheStats().Occupancy
	if occ.Entries == 0 || occ.Buckets == 0 || occ.Lookups == 0 {
		t.Errorf("index stats after ingest and a query: %+v", occ)
	}
}
