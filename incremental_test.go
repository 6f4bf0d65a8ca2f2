package locater_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"locater"
	"locater/internal/cluster"
	"locater/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gapStatsMaxErr compares every device's incrementally-maintained gap
// sufficient statistics against the batch-recompute oracle, returning the
// worst relative error across all fields. The incremental path and the
// oracle fold events through the same observe function, so any divergence
// beyond float noise is an ordering or bookkeeping bug.
func gapStatsMaxErr(t *testing.T, sys *locater.System, devices []locater.DeviceID) float64 {
	t.Helper()
	relErr := func(a, b float64) float64 {
		d := math.Abs(a - b)
		if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
			d /= m
		}
		return d
	}
	worst := 0.0
	for _, dev := range devices {
		inc, ok1 := sys.GapStats(dev)
		bat, ok2 := sys.GapStatsOracle(dev)
		if ok1 != ok2 {
			t.Fatalf("device %s: incremental ok=%v, oracle ok=%v", dev, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		if inc.LastNanos != bat.LastNanos {
			t.Fatalf("device %s: LastNanos %d vs oracle %d", dev, inc.LastNanos, bat.LastNanos)
		}
		if inc.RawEvents != bat.RawEvents {
			t.Fatalf("device %s: RawEvents %d vs oracle %d", dev, inc.RawEvents, bat.RawEvents)
		}
		worst = math.Max(worst, relErr(inc.Events, bat.Events))
		worst = math.Max(worst, relErr(inc.Gaps, bat.Gaps))
		worst = math.Max(worst, relErr(inc.GapSeconds, bat.GapSeconds))
		worst = math.Max(worst, relErr(inc.Inside, bat.Inside))
		worst = math.Max(worst, relErr(inc.Outside, bat.Outside))
		for i := range inc.Hist {
			worst = math.Max(worst, relErr(inc.Hist[i], bat.Hist[i]))
		}
	}
	return worst
}

func dsDevices(ds *sim.Dataset) []locater.DeviceID {
	devs := make([]locater.DeviceID, len(ds.People))
	for i, p := range ds.People {
		devs[i] = p.Device
	}
	return devs
}

// interleaving replays ds.Events against a system in a random interleaving
// of ingest batches (some deliberately shuffled out of order), per-device
// invalidations (SetDelta), and queries. Deterministic in seed, so every
// system driven with the same seed sees the same operation sequence. The
// position is kept between run calls, so a test can swap the system (a
// crash re-open) partway through the stream.
type interleaving struct {
	ds         *sim.Dataset
	rng        *rand.Rand
	queryEvery int
	next, step int
}

func newInterleaving(ds *sim.Dataset, seed int64, queryEvery int) *interleaving {
	return &interleaving{ds: ds, rng: rand.New(rand.NewSource(seed)), queryEvery: queryEvery}
}

// run drives sys until at least upTo events are ingested and returns the
// answers to the queries issued on the way.
func (iv *interleaving) run(t *testing.T, sys locater.Locater, upTo int) []locater.Result {
	t.Helper()
	ds, rng := iv.ds, iv.rng
	var results []locater.Result
	for iv.next < upTo {
		n := 32 + rng.Intn(96)
		if iv.next+n > len(ds.Events) {
			n = len(ds.Events) - iv.next
		}
		batch := make([]locater.Event, n)
		copy(batch, ds.Events[iv.next:iv.next+n])
		iv.next += n
		// A third of the batches arrive shuffled: out-of-order within the
		// batch and straddling earlier batches' time ranges is exactly what
		// routes devices onto the rebuild escape hatch.
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		}
		if err := sys.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(8) == 0 {
			// An explicit per-device invalidation mid-stream.
			p := ds.People[rng.Intn(len(ds.People))]
			s, ok := sys.(interface {
				SetDelta(locater.DeviceID, time.Duration) error
			})
			if !ok {
				t.Fatalf("%T has no SetDelta", sys)
			}
			if err := s.SetDelta(p.Device, time.Duration(5+rng.Intn(10))*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		iv.step++
		if iv.queryEvery > 0 && iv.step%iv.queryEvery == 0 {
			p := ds.People[rng.Intn(len(ds.People))]
			qt := simStart.Add(time.Duration(24+rng.Intn(48))*time.Hour + time.Duration(rng.Intn(3600))*time.Second)
			res, err := sys.Locate(p.Device, qt)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	return results
}

// driveInterleaved runs the whole interleaving against one system.
func driveInterleaved(t *testing.T, sys locater.Locater, ds *sim.Dataset, seed int64, queryEvery int) []locater.Result {
	t.Helper()
	return newInterleaving(ds, seed, queryEvery).run(t, sys, len(ds.Events))
}

// TestIncrementalStatsMatchOracleUnderInterleaving is the tentpole's core
// property: after any interleaving of in-order ingest, out-of-order ingest,
// invalidation, and queries, the incremental gap statistics equal a batch
// recompute from the store within 1e-9.
func TestIncrementalStatsMatchOracleUnderInterleaving(t *testing.T) {
	ds := buildDataset(t, 5)
	for _, seed := range []int64{1, 7, 42} {
		sys := newEmptySystem(t, ds, locater.Config{EnableCache: true})
		driveInterleaved(t, sys, ds, seed, 6)
		if err := gapStatsMaxErr(t, sys, dsDevices(ds)); err > 1e-9 {
			t.Fatalf("seed %d: incremental stats diverge from oracle by %g", seed, err)
		}
	}
}

// interleavedGolden holds the answers of the seed-3 and seed-19
// interleavings (a query every 4th step, arbitrary un-quantized times). It
// was recorded at the last commit that still carried a recompute-on-write
// path, where the incremental path and that one answered alike.
const interleavedGolden = "testdata/interleaved-answers.golden"

// interleavedAnswers drives iv to the end of the stream on sys and prints
// one answer per line: the queries issued mid-stream (on top of any the
// caller already collected), then a fixed daytime sample against the final
// state — mid-stream queries mostly land ahead of the ingested history and
// read "outside", the sample mostly lands inside. %v prints a float64 in
// the shortest form that reads back exactly, so equal text means equal
// answers.
func interleavedAnswers(t *testing.T, buf *bytes.Buffer, seed int64, iv *interleaving, sys locater.Locater, mid []locater.Result) {
	t.Helper()
	mid = append(mid, iv.run(t, sys, len(iv.ds.Events))...)
	for i, r := range mid {
		fmt.Fprintf(buf, "seed=%d query=%d %+v\n", seed, i, r)
	}
	for i, q := range sampleQueries(iv.ds, 40) {
		r, err := sys.Locate(q.Device, q.Time)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(buf, "seed=%d final=%d %+v\n", seed, i, r)
	}
}

func checkInterleavedGolden(t *testing.T, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(interleavedGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(interleavedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("answers diverge from %s at line %d:\ngot:  %s\nwant: %s", interleavedGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d answer lines, %s has %d", len(gl), interleavedGolden, len(wl))
	}
}

// TestInterleavedAnswersGolden drives the write path through the
// interleaved workload and requires the recorded answers byte for byte:
// incremental maintenance, scoped SetDelta invalidation and out-of-order
// rebuilds must be invisible to every query. Regenerate with -update after
// an intentional change to the answers.
func TestInterleavedAnswersGolden(t *testing.T) {
	ds := buildDataset(t, 5)
	var buf bytes.Buffer
	for _, seed := range []int64{3, 19} {
		sys := newEmptySystem(t, ds, locater.Config{EnableCache: true})
		interleavedAnswers(t, &buf, seed, newInterleaving(ds, seed, 4), sys, nil)
	}
	checkInterleavedGolden(t, buf.Bytes())
}

// TestInterleavedAnswersGoldenAcrossCrash runs the same interleavings on a
// durable system that is killed (re-opened without Close) halfway through
// the stream: the answers before and after recovery are the same file's.
func TestInterleavedAnswersGoldenAcrossCrash(t *testing.T) {
	ds := buildDataset(t, 5)
	cfg := locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	var buf bytes.Buffer
	for _, seed := range []int64{3, 19} {
		dir := t.TempDir()
		live, err := locater.Open(dir, cfg, locater.PersistOptions{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		iv := newInterleaving(ds, seed, 4)
		mid := iv.run(t, live, len(ds.Events)/2)
		rec, err := locater.Open(dir, cfg, locater.PersistOptions{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		interleavedAnswers(t, &buf, seed, iv, rec, mid)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		t.Skip("the golden is recorded by TestInterleavedAnswersGolden")
	}
	checkInterleavedGolden(t, buf.Bytes())
}

// TestIncrementalStatsSurviveCrashRecovery checkpoints mid-stream, keeps
// ingesting, crashes (reopen without Close), and requires the recovered
// system's incremental statistics to match its own batch oracle AND the
// dead system's: recovery replays the WAL through the same observe path.
func TestIncrementalStatsSurviveCrashRecovery(t *testing.T) {
	ds := buildDataset(t, 5)
	dir := t.TempDir()
	cfg := locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	popts := locater.PersistOptions{Fsync: true}
	live, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	driveInterleaved(t, live, ds, 11, 0)
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail after the only checkpoint: recovered state stitches the
	// snapshot with a WAL replay.
	tail := make([]locater.Event, 0, 64)
	for i, p := range ds.People {
		tail = append(tail, locater.Event{
			Device: p.Device,
			Time:   simStart.Add(120*time.Hour + time.Duration(i)*time.Minute),
			AP:     ds.Events[0].AP,
		})
	}
	if err := live.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	devs := dsDevices(ds)
	if err := gapStatsMaxErr(t, live, devs); err > 1e-9 {
		t.Fatalf("live stats diverge from oracle by %g", err)
	}

	rec, err := locater.Open(dir, cfg, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := gapStatsMaxErr(t, rec, devs); err > 1e-9 {
		t.Fatalf("recovered stats diverge from oracle by %g", err)
	}
	for _, d := range devs {
		a, ok1 := live.GapStats(d)
		b, ok2 := rec.GapStats(d)
		if ok1 != ok2 || a != b {
			t.Fatalf("device %s: recovered stats differ from live (ok %v/%v)", d, ok1, ok2)
		}
	}
}

// TestIncrementalStatsAcrossCluster routes an interleaved workload through
// a sharded deployment and checks every shard's incremental statistics
// against that shard's own oracle: routing must not perturb maintenance.
func TestIncrementalStatsAcrossCluster(t *testing.T) {
	ds := buildDataset(t, 5)
	cfg := locater.Config{
		Building:           ds.Building,
		EnableCache:        true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	cl, err := cluster.New(cfg, cluster.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	driveInterleaved(t, cl, ds, 23, 6)
	for i := 0; i < cl.NumShards(); i++ {
		if err := gapStatsMaxErr(t, cl.Shard(i), dsDevices(ds)); err > 1e-9 {
			t.Fatalf("shard %d: incremental stats diverge from oracle by %g", i, err)
		}
	}
}

// newEmptySystem builds a System over ds.Building without ingesting
// anything (the interleaving driver owns ingest).
func newEmptySystem(t testing.TB, ds *sim.Dataset, cfg locater.Config) *locater.System {
	t.Helper()
	cfg.Building = ds.Building
	cfg.HistoryDays = 14
	cfg.PromotionsPerRound = 8
	cfg.MaxTrainingGaps = 100
	sys, err := locater.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// FuzzIncrementalMaintenance lets the fuzzer pick the interleaving: the
// seed selects batch boundaries, shuffles, and invalidations; the property
// is always stats-equal-oracle. `go test -fuzz=FuzzIncrementalMaintenance`
// explores; the seed corpus keeps the target exercised on every plain run.
func FuzzIncrementalMaintenance(f *testing.F) {
	sc, err := sim.DBH(2)
	if err != nil {
		f.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 3, 5))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(1))
	f.Add(int64(1 << 40))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		cfg := locater.Config{
			Building:           ds.Building,
			EnableCache:        true,
			HistoryDays:        14,
			PromotionsPerRound: 8,
			MaxTrainingGaps:    50,
		}
		sys, err := locater.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveInterleaved(t, sys, ds, seed, 10)
		if errv := gapStatsMaxErr(t, sys, dsDevices(ds)); errv > 1e-9 {
			t.Fatalf("seed %d: incremental stats diverge from oracle by %g", seed, errv)
		}
	})
}
