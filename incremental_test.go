package locater_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
		// A third of the batches arrive shuffled: out of order within the
		// batch and straddling earlier batches' time ranges.
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
// model invalidation on ingest, scoped SetDelta invalidation and
// out-of-order arrival must be invisible to every query. Regenerate with
// -update after an intentional change to the answers.
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
