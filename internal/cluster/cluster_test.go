package cluster_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"locater"
	"locater/internal/cluster"
	"locater/internal/sim"
)

var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func buildDataset(t testing.TB, perClass, days int, seed int64) *sim.Dataset {
	t.Helper()
	sc, err := sim.DBH(perClass)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, days, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// testConfig is every shard's configuration; the cluster sets Building.
func testConfig() locater.Config {
	return locater.Config{
		EnableCache:        true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
}

// systemConfig is testConfig for a bare System over b.
func systemConfig(b *locater.Building) locater.Config {
	cfg := testConfig()
	cfg.Building = b
	return cfg
}

// ingestChunks streams events in batches, the shape a live deployment has.
func ingestChunks(t testing.TB, sys locater.Locater, events []locater.Event) {
	t.Helper()
	const chunk = 256
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		if err := sys.Ingest(events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

func estimate(t testing.TB, sys locater.Locater) {
	t.Helper()
	if err := sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
}

// sampleQueries picks deterministic daytime query points interleaved across
// devices, so consecutive queries route to different shards when the
// devices alternate buildings.
func sampleQueries(devices []locater.DeviceID, n int) []locater.Query {
	queries := make([]locater.Query, 0, n)
	for i := 0; len(queries) < n; i++ {
		hour := 9 + (i*3)%9
		day := 1 + i%4
		queries = append(queries, locater.Query{
			Device: devices[i%len(devices)],
			Time:   simStart.Add(time.Duration(day*24+hour) * time.Hour),
		})
	}
	return queries
}

func devicesOf(ds *sim.Dataset) []locater.DeviceID {
	devs := make([]locater.DeviceID, len(ds.People))
	for i, p := range ds.People {
		devs[i] = p.Device
	}
	return devs
}

// TestSingleShardClusterIdenticalToSystem is the strict correctness gate: a
// cluster of one shard must be indistinguishable from a bare System — every
// Result byte-identical (full struct equality, diagnostics included), no
// errors on either side.
func TestSingleShardClusterIdenticalToSystem(t *testing.T) {
	ds := buildDataset(t, 2, 7, 77)

	sys, err := locater.New(systemConfig(ds.Building))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(testConfig(), cluster.Options{Buildings: []*locater.Building{ds.Building}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ingestChunks(t, sys, ds.Events)
	ingestChunks(t, c, ds.Events)
	estimate(t, sys)
	estimate(t, c)

	if got, want := c.NumEvents(), sys.NumEvents(); got != want {
		t.Fatalf("cluster holds %d events, system %d", got, want)
	}
	// Serialized batches (workers=1): concurrent workers interleave the
	// fine stage's incremental affinity-graph updates nondeterministically,
	// which perturbs posteriors of later queries in the same batch. The
	// byte-identity contract is defined over the deterministic serial
	// execution.
	queries := sampleQueries(devicesOf(ds), 60)
	want := sys.LocateBatch(queries, 1)
	got := c.LocateBatch(queries, 1)
	for i := range queries {
		if want[i].Err != nil || got[i].Err != nil {
			t.Fatalf("query %d errored: system=%v cluster=%v", i, want[i].Err, got[i].Err)
		}
		if want[i].Result != got[i].Result {
			t.Errorf("query %d (%s, %v): system=%+v cluster=%+v",
				i, queries[i].Device, queries[i].Time, want[i].Result, got[i].Result)
		}
	}
	// The single-query path routes through the same shard.
	res, err := c.Locate(queries[0].Device, queries[0].Time)
	if err != nil {
		t.Fatal(err)
	}
	if res != want[0].Result {
		t.Errorf("Locate = %+v, want %+v", res, want[0].Result)
	}
}

// buildingScenario is a compact deterministic scenario over its own
// building (name-prefixed AP and room IDs keep two buildings' AP sets
// disjoint).
func buildingScenario(t testing.TB, name string, seed int64) *sim.Dataset {
	t.Helper()
	b, err := sim.GridBuilding(name, 24, 4, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.Scenario{
		Name:     name,
		Building: b,
		Profiles: []sim.Profile{{
			Name: "staff", Count: 5, HasOffice: true, BaseStay: 0.7,
			PresenceProb: 0.9,
			ArrivalMean:  9 * time.Hour, ArrivalStd: 30 * time.Minute,
			DepartureMean: 17 * time.Hour, DepartureStd: 30 * time.Minute,
			AttendProb: 0.8, MidDayExitProb: 0.4,
			EmitPeriod: 10 * time.Minute, EmitProb: 0.7,
			SilenceProb: 0.05,
		}},
	}
	ds, err := sim.Generate(sc.Config(simStart, 5, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// prefixDevices clones events under namespaced device IDs, so two
// independently generated datasets cannot collide on a device.
func prefixDevices(events []locater.Event, prefix string) []locater.Event {
	out := make([]locater.Event, len(events))
	for i, e := range events {
		e.Device = locater.DeviceID(prefix + string(e.Device))
		out[i] = e
	}
	return out
}

// campus is one buildingScenario per name, served together: shard i is
// building names[i].
type campus struct {
	buildings []*locater.Building
	// events holds every building's events under "<name>:"-prefixed device
	// IDs, interleaved in 128-event runs.
	events []locater.Event
	// devices lists the prefixed device IDs, alternating buildings (every
	// buildingScenario has the same head count).
	devices []locater.DeviceID
}

func newCampus(t testing.TB, names ...string) campus {
	t.Helper()
	var c campus
	var streams [][]locater.Event
	var people [][]locater.DeviceID
	for i, name := range names {
		ds := buildingScenario(t, name, int64(3+i))
		prefix := name + ":"
		c.buildings = append(c.buildings, ds.Building)
		streams = append(streams, prefixDevices(ds.Events, prefix))
		devs := devicesOf(ds)
		for j, d := range devs {
			devs[j] = locater.DeviceID(prefix + string(d))
		}
		people = append(people, devs)
	}
	total := 0
	for _, ev := range streams {
		total += len(ev)
	}
	for i := 0; len(c.events) < total; i += 128 {
		for _, ev := range streams {
			if i < len(ev) {
				c.events = append(c.events, ev[i:min(i+128, len(ev))]...)
			}
		}
	}
	for i := 0; i < len(people[0]); i++ {
		for _, devs := range people {
			c.devices = append(c.devices, devs[i])
		}
	}
	return c
}

func (c campus) options() cluster.Options { return cluster.Options{Buildings: c.buildings} }

// TestBatchSplitMergePreservesOrder drives a batch through a 4-shard router
// and checks the answers come back in input order, each slot matching what
// the owning shard answers for that query alone.
func TestBatchSplitMergePreservesOrder(t *testing.T) {
	cp := newCampus(t, "alpha", "beta", "gamma", "delta")
	c, err := cluster.New(testConfig(), cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ingestChunks(t, c, cp.events)
	estimate(t, c)

	queries := sampleQueries(cp.devices, 48)
	out := c.LocateBatch(queries, 3)
	if len(out) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(out), len(queries))
	}
	for i := range queries {
		if out[i].Query != queries[i] {
			t.Fatalf("slot %d carries query %+v, want %+v (input order lost)", i, out[i].Query, queries[i])
		}
		if out[i].Err != nil {
			t.Fatalf("query %d: %v", i, out[i].Err)
		}
		// The single-query path must agree with the batch slot: same shard,
		// same answer.
		single, err := c.Locate(queries[i].Device, queries[i].Time)
		if err != nil {
			t.Fatal(err)
		}
		if single != out[i].Result {
			t.Errorf("query %d: batch=%+v single=%+v", i, out[i].Result, single)
		}
	}
}

// TestBatchPerQueryErrors checks that per-query failures stay attached to
// their input slots across the shard split: a canceled context fails every
// query individually, with the Query field still identifying the slot.
func TestBatchPerQueryErrors(t *testing.T) {
	cp := newCampus(t, "alpha", "beta")
	c, err := cluster.New(testConfig(), cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ingestChunks(t, c, cp.events)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := sampleQueries(cp.devices, 16)
	out := c.LocateBatchContext(ctx, queries, 2)
	if len(out) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(out), len(queries))
	}
	for i := range out {
		if out[i].Err == nil {
			t.Errorf("query %d: expected a per-query error under a canceled context", i)
		}
		if out[i].Query != queries[i] {
			t.Errorf("slot %d carries query %+v, want %+v", i, out[i].Query, queries[i])
		}
	}
}

// TestIngestRejectsInvalidBatchWhole: a batch holding one invalid event is
// refused whole, as System.Ingest refuses it — no shard stores any of it
// and no device in it is homed, so a corrected retry routes as if the bad
// batch never arrived.
func TestIngestRejectsInvalidBatchWhole(t *testing.T) {
	cp := newCampus(t, "alpha", "beta")
	c, err := cluster.New(testConfig(), cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	apA := cp.buildings[0].AccessPoints()[0]
	apB := cp.buildings[1].AccessPoints()[0]
	at := simStart.Add(30 * time.Hour)

	bad := []locater.Event{
		{Device: "a:1", Time: at, AP: apA},
		{Device: "b:1", AP: apB}, // zero time
	}
	if err := c.Ingest(bad); !errors.Is(err, locater.ErrInvalidEvent) {
		t.Fatalf("Ingest = %v, want ErrInvalidEvent", err)
	}
	if err := c.IngestOne(bad[1]); !errors.Is(err, locater.ErrInvalidEvent) {
		t.Fatalf("IngestOne = %v, want ErrInvalidEvent", err)
	}
	if n := c.NumEvents(); n != 0 {
		t.Fatalf("rejected batch left %d events", n)
	}

	// Unhomed devices route by AP, so each lands in the other's building.
	if err := c.Ingest([]locater.Event{
		{Device: "a:1", Time: at, AP: apB},
		{Device: "b:1", Time: at, AP: apA},
	}); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]locater.DeviceID{{"b:1"}, {"a:1"}} {
		if got := c.Shard(i).Devices(); !reflect.DeepEqual(got, want) {
			t.Errorf("shard %d devices %v, want %v (a rejected batch homed a device)", i, got, want)
		}
	}
}

// TestClusterRecoveryEquivalence is the sharded variant of the WAL crash
// test: a 2-shard durable cluster abandoned without Close (the crash) must
// recover every acknowledged event from its per-shard logs and answer the
// same queries identically.
func TestClusterRecoveryEquivalence(t *testing.T) {
	cp := newCampus(t, "alpha", "beta")
	dir := t.TempDir()
	popts := locater.PersistOptions{Fsync: true}

	live, err := cluster.Open(dir, testConfig(), popts, cp.options())
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, live, cp.events)
	estimate(t, live)
	// Serialized batches: see TestSingleShardClusterIdenticalToSystem.
	queries := sampleQueries(cp.devices, 40)
	liveRes := live.LocateBatch(queries, 1)

	// Each shard logs to its own subdirectory.
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(cluster.ShardDir(dir, i)); err != nil {
			t.Fatalf("shard %d directory: %v", i, err)
		}
	}

	// Crash: no Close, no Checkpoint — recovery from the WAL tails alone.
	rec, err := cluster.Open(dir, testConfig(), popts, cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	if got, want := rec.NumEvents(), live.NumEvents(); got != want {
		t.Fatalf("recovered %d events, want %d (zero acknowledged-event loss)", got, want)
	}
	estimate(t, rec)
	recRes := rec.LocateBatch(queries, 1)
	for i := range queries {
		if liveRes[i].Err != nil || recRes[i].Err != nil {
			t.Fatalf("query %d errored: live=%v recovered=%v", i, liveRes[i].Err, recRes[i].Err)
		}
		if liveRes[i].Result != recRes[i].Result {
			t.Errorf("query %d (%s, %v): live=%+v recovered=%+v",
				i, queries[i].Device, queries[i].Time, liveRes[i].Result, recRes[i].Result)
		}
	}

	// The merged persist counters reconcile with the per-shard sums.
	segs, last, durable, ok := rec.PersistStats()
	if !ok {
		t.Fatal("durable cluster reports ok=false")
	}
	var wantSegs int
	var wantLast, wantDurable uint64
	for _, si := range rec.ShardInfos() {
		if !si.Durable {
			t.Fatalf("shard %d reports Durable=false", si.Index)
		}
		wantSegs += si.Segments
		wantLast += si.LastLSN
		wantDurable += si.DurableLSN
	}
	if segs != wantSegs || last != wantLast || durable != wantDurable {
		t.Errorf("PersistStats = (%d, %d, %d), per-shard sums = (%d, %d, %d)",
			segs, last, durable, wantSegs, wantLast, wantDurable)
	}
}

// TestMergedStatsReconcile checks every merged counter against the shards
// summed directly: the coordinator must not invent or lose any accounting.
func TestMergedStatsReconcile(t *testing.T) {
	cp := newCampus(t, "alpha", "beta")
	c, err := cluster.New(testConfig(), cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ingestChunks(t, c, cp.events)
	estimate(t, c)
	queries := sampleQueries(cp.devices, 40)
	c.LocateBatch(queries, 4)
	c.LocateBatch(queries, 4) // second pass exercises the result caches

	var events, devices, served int
	for _, si := range c.ShardInfos() {
		events += si.Events
		devices += si.Devices
		served += si.Queries
	}
	if got := c.NumEvents(); got != events || events != len(cp.events) {
		t.Errorf("NumEvents = %d, shard sum = %d, ingested = %d", got, events, len(cp.events))
	}
	if got := c.NumDevices(); got != devices {
		t.Errorf("NumDevices = %d, shard sum = %d", got, devices)
	}
	if got := c.NumQueries(); got != served || served != 2*len(queries) {
		t.Errorf("NumQueries = %d, shard sum = %d, issued = %d", got, served, 2*len(queries))
	}

	var hits, misses int64
	var edges int
	var cold, cached int64
	for i := 0; i < c.NumShards(); i++ {
		cs := c.Shard(i).CacheStats()
		hits += cs.Results.Hits
		misses += cs.Results.Misses
		edges += cs.GraphEdges
		qs := c.Shard(i).QueryStats()
		cold += qs.Cold.Count
		cached += qs.Cached.Count
	}
	merged := c.CacheStats()
	if merged.Results.Hits != hits || merged.Results.Misses != misses {
		t.Errorf("merged result tier = %d hits/%d misses, shard sums = %d/%d",
			merged.Results.Hits, merged.Results.Misses, hits, misses)
	}
	if merged.GraphEdges != edges {
		t.Errorf("merged graph edges = %d, shard sum = %d", merged.GraphEdges, edges)
	}
	mq := c.QueryStats()
	if mq.Cold.Count != cold || mq.Cached.Count != cached {
		t.Errorf("merged query counts = %d cold/%d cached, shard sums = %d/%d",
			mq.Cold.Count, mq.Cached.Count, cold, cached)
	}
	if got, want := mq.Cold.Count+mq.Cached.Count, int64(2*len(queries)); got != want {
		t.Errorf("latency populations hold %d observations, served %d queries", got, want)
	}

	// In-memory cluster: no persist layer.
	if _, _, _, ok := c.PersistStats(); ok {
		t.Error("in-memory cluster reports PersistStats ok=true")
	}
}

// TestBuildingModeRoutesByAccessPoint checks exact building routing: events
// land on the shard owning their AP's building, and every query is answered
// identically to a per-building System (building sharding is not an
// approximation — co-located devices share a shard).
func TestBuildingModeRoutesByAccessPoint(t *testing.T) {
	dsA := buildingScenario(t, "alpha", 3)
	dsB := buildingScenario(t, "beta", 4)
	evA := prefixDevices(dsA.Events, "a:")
	evB := prefixDevices(dsB.Events, "b:")

	c, err := cluster.New(testConfig(), cluster.Options{
		Buildings: []*locater.Building{dsA.Building, dsB.Building},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Interleave the two buildings' streams to exercise the partition pass.
	mixed := make([]locater.Event, 0, len(evA)+len(evB))
	for i := 0; i < len(evA) || i < len(evB); i += 128 {
		for _, ev := range [][]locater.Event{evA, evB} {
			end := i + 128
			if end > len(ev) {
				end = len(ev)
			}
			if i < len(ev) {
				mixed = append(mixed, ev[i:end]...)
			}
		}
	}
	ingestChunks(t, c, mixed)
	estimate(t, c)

	if got := c.Shard(0).NumEvents(); got != len(evA) {
		t.Errorf("shard 0 holds %d events, want %d (all of building alpha)", got, len(evA))
	}
	if got := c.Shard(1).NumEvents(); got != len(evB) {
		t.Errorf("shard 1 holds %d events, want %d (all of building beta)", got, len(evB))
	}

	// Reference: one System per building over the same streams.
	sysA, err := locater.New(systemConfig(dsA.Building))
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := locater.New(systemConfig(dsB.Building))
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, sysA, evA)
	ingestChunks(t, sysB, evB)
	estimate(t, sysA)
	estimate(t, sysB)

	var queries []locater.Query
	for i := 0; i < 10; i++ {
		qt := simStart.Add(time.Duration(24+i*7) * time.Hour)
		queries = append(queries,
			locater.Query{Device: locater.DeviceID("a:" + string(dsA.People[i%len(dsA.People)].Device)), Time: qt},
			locater.Query{Device: locater.DeviceID("b:" + string(dsB.People[i%len(dsB.People)].Device)), Time: qt})
	}
	// workers=2 gives each building's shard one serial worker, keeping the
	// comparison against the serial per-building systems deterministic.
	got := c.LocateBatch(queries, 2)
	for i, q := range queries {
		ref := sysA
		if q.Device[0] == 'b' {
			ref = sysB
		}
		want, err := ref.Locate(q.Device, q.Time)
		if err != nil || got[i].Err != nil {
			t.Fatalf("query %d errored: ref=%v cluster=%v", i, err, got[i].Err)
		}
		if got[i].Result != want {
			t.Errorf("query %d (%s): cluster=%+v per-building system=%+v", i, q.Device, got[i].Result, want)
		}
	}
}

// TestBuildingModeRecoveryRebuildsHomes crashes a durable cluster and
// checks the reopened router still sends a recovered device's queries to
// the shard that persisted it (the device→shard registry is rebuilt from
// the shards' recovered device sets, not lost with the process).
func TestBuildingModeRecoveryRebuildsHomes(t *testing.T) {
	dsA := buildingScenario(t, "alpha", 3)
	dsB := buildingScenario(t, "beta", 4)
	evA := prefixDevices(dsA.Events, "a:")
	evB := prefixDevices(dsB.Events, "b:")
	dir := t.TempDir()
	popts := locater.PersistOptions{Fsync: true}
	copts := cluster.Options{
		Buildings: []*locater.Building{dsA.Building, dsB.Building},
	}

	live, err := cluster.Open(dir, testConfig(), popts, copts)
	if err != nil {
		t.Fatal(err)
	}
	ingestChunks(t, live, evA)
	ingestChunks(t, live, evB)

	// Crash without Close; reopen and query a beta device.
	rec, err := cluster.Open(dir, testConfig(), popts, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	dev := locater.DeviceID("b:" + string(dsB.People[0].Device))
	before := rec.Shard(1).NumQueries()
	if _, err := rec.Locate(dev, simStart.Add(30*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if got := rec.Shard(1).NumQueries(); got != before+1 {
		t.Errorf("recovered beta device did not route to shard 1 (queries %d → %d)", before, got)
	}
}

// TestClusterQuarantineMerge exercises the Quarantiner surface on a
// sharded deployment: cleansing-rejected events land in per-shard rings,
// and the cluster presents them as one merged, newest-first quarantine with
// summed counters.
func TestClusterQuarantineMerge(t *testing.T) {
	cp := newCampus(t, "alpha", "beta")
	cfg := testConfig()
	cfg.EnableCleansing = true
	cl, err := cluster.New(cfg, cp.options())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !cl.CleansingEnabled() {
		t.Fatal("cluster with cleansing-enabled shards reports CleansingEnabled()=false")
	}
	ingestChunks(t, cl, cp.events)

	// Append, per device, a fresh event at an AP of its own building
	// followed by its exact duplicate: the duplicate is quarantined on the
	// shard that owns the device.
	homeAP := make(map[locater.DeviceID]locater.APID)
	for _, e := range cp.events {
		if _, ok := homeAP[e.Device]; !ok {
			homeAP[e.Device] = e.AP
		}
	}
	base := simStart.Add(120 * time.Hour)
	nDev := len(cp.devices)
	for i, d := range cp.devices {
		e := locater.Event{Device: d, Time: base.Add(time.Duration(i) * time.Minute), AP: homeAP[d]}
		if err := cl.Ingest([]locater.Event{e, e}); err != nil {
			t.Fatal(err)
		}
	}

	st := cl.CleanseStats()
	if st.Duplicates != int64(nDev) || st.Quarantined != int64(nDev) {
		t.Fatalf("merged cleanse stats %+v, want %d duplicates quarantined", st, nDev)
	}
	if st.Ingested != int64(len(cp.events)+2*nDev) {
		t.Fatalf("merged Ingested=%d, want %d", st.Ingested, len(cp.events)+2*nDev)
	}

	// Per-shard rings must reconcile with the merged view, and more than
	// one shard must have contributed (each building has devices).
	contributing := 0
	perShard := 0
	for i := 0; i < cl.NumShards(); i++ {
		n := len(cl.Shard(i).Quarantine(0))
		perShard += n
		if n > 0 {
			contributing++
		}
	}
	if contributing < 2 {
		t.Fatalf("expected quarantined events on ≥2 shards, got %d", contributing)
	}
	merged := cl.Quarantine(0)
	if len(merged) != perShard || len(merged) != nDev {
		t.Fatalf("merged quarantine has %d entries, per-shard sum %d, want %d", len(merged), perShard, nDev)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At.After(merged[i-1].At) {
			t.Fatalf("merged quarantine not newest-first at %d: %v after %v", i, merged[i].At, merged[i-1].At)
		}
	}
	for _, ent := range merged {
		if ent.Rule != "duplicate" {
			t.Fatalf("unexpected rule %q in quarantine", ent.Rule)
		}
	}
	if got := cl.Quarantine(3); len(got) != 3 {
		t.Fatalf("Quarantine(3) returned %d entries", len(got))
	}
}
