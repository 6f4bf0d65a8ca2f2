// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6). Each benchmark runs the corresponding experiment driver on a
// reduced workload; `go test -bench . -benchmem` prints the measured tables
// via b.Log at -v, and cmd/locater-bench prints them at full scale.
//
// One benchmark per paper artifact:
//
//	BenchmarkFig7Thresholds        — Fig. 7, coarse precision vs τl/τh
//	BenchmarkTable2Weights         — Table 2, Pf vs weight combinations
//	BenchmarkFig8History           — Fig. 8, precision vs weeks of history
//	BenchmarkFig9CachingPrecision  — Fig. 9, precision with/without cache
//	BenchmarkTable3Groups          — Table 3, per-group precision vs baselines
//	BenchmarkTable4Scenarios       — Table 4, four simulated scenarios
//	BenchmarkFig10Efficiency       — Fig. 10, latency vs #queries
//	BenchmarkFig11StopConditions   — Fig. 11, stop conditions on/off
//	BenchmarkFig12Caching          — Fig. 12, caching on/off latency
//
// plus ablation benchmarks for the design knobs called out in DESIGN.md and
// micro-benchmarks of the hot query paths.
package locater_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locater"
	"locater/internal/eval"
	"locater/internal/experiments"
)

// benchParams is the reduced workload used by the benchmark harness.
var benchParams = experiments.Params{
	PerClass: 3,
	Days:     21,
	Queries:  120,
	Seed:     1,
	Fast:     true,
}

// runDriver executes one experiment driver per iteration and logs the
// resulting tables once.
func runDriver(b *testing.B, name string) {
	b.Helper()
	d, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	var logged bool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := d.Run(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if !logged {
			logged = true
			var sb strings.Builder
			for _, t := range tables {
				t.Fprint(&sb)
			}
			b.Log("\n" + sb.String())
		}
	}
}

func BenchmarkFig7Thresholds(b *testing.B)       { runDriver(b, "fig7") }
func BenchmarkTable2Weights(b *testing.B)        { runDriver(b, "table2") }
func BenchmarkFig8History(b *testing.B)          { runDriver(b, "fig8") }
func BenchmarkFig9CachingPrecision(b *testing.B) { runDriver(b, "fig9") }
func BenchmarkTable3Groups(b *testing.B)         { runDriver(b, "table3") }
func BenchmarkTable4Scenarios(b *testing.B)      { runDriver(b, "table4") }
func BenchmarkFig10Efficiency(b *testing.B)      { runDriver(b, "fig10") }
func BenchmarkFig11StopConditions(b *testing.B)  { runDriver(b, "fig11") }
func BenchmarkFig12Caching(b *testing.B)         { runDriver(b, "fig12") }

// --- ablation benchmarks (DESIGN.md design decisions) ---------------------

// BenchmarkAblationPromotion measures Algorithm 1's self-training cost as a
// function of the per-round promotion batch size (1 = verbatim Algorithm 1).
func BenchmarkAblationPromotion(b *testing.B) {
	ds, err := experiments.BuildDBH(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "verbatim", 4: "batch4", 16: "batch16"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys, err := locater.New(locater.Config{
					Building:           ds.Building,
					HistoryDays:        14,
					PromotionsPerRound: k,
					MaxTrainingGaps:    100,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Ingest(ds.Events); err != nil {
					b.Fatal(err)
				}
				sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
				// Force one model training via a gap query.
				tq := ds.Config.Start.AddDate(0, 0, 18).Add(12 * time.Hour)
				if _, err := sys.Locate(ds.People[0].Device, tq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot paths -------------------------------------

// BenchmarkLocateWarm measures steady-state per-query latency of both
// variants with a warm cache (the converged regime of Fig. 10). It shares
// warmedSystem with BenchmarkLocateParallel so the serial and parallel
// numbers compare identically configured systems.
func BenchmarkLocateWarm(b *testing.B) {
	for _, v := range []struct {
		name    string
		variant locater.Variant
	}{
		{"I-LOCATER", locater.IndependentVariant},
		{"D-LOCATER", locater.DependentVariant},
	} {
		b.Run(v.name, func(b *testing.B) {
			sys, batch := warmedSystem(b, v.variant)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := batch[i%len(batch)]
				if _, err := sys.Locate(q.Device, q.Time); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmedSystem assembles the warm benchmark system: build the DBH workload,
// ingest it, estimate per-device deltas, and answer every sampled query once
// so per-device models and the affinity cache are hot. It returns the
// system plus the warmed batch queries.
func warmedSystem(b *testing.B, variant locater.Variant) (*locater.System, []locater.Query) {
	b.Helper()
	ds, err := experiments.BuildDBH(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := experiments.SampleDefaultQueries(ds, benchParams, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := locater.Config{
		Building:           ds.Building,
		Variant:            variant,
		EnableCache:        true,
		HistoryDays:        14,
		PromotionsPerRound: 8,
		MaxTrainingGaps:    100,
	}
	sys, err := locater.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		b.Fatal(err)
	}
	if err := sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		b.Fatal(err)
	}
	batch := make([]locater.Query, len(queries))
	for i, q := range queries {
		batch[i] = locater.Query{Device: q.Device, Time: q.Time}
	}
	for _, r := range sys.LocateBatch(batch, 0) {
		if r.Err != nil {
			b.Fatalf("warm-up query (%s, %v): %v", r.Query.Device, r.Query.Time, r.Err)
		}
	}
	return sys, batch
}

// BenchmarkLocateParallel measures concurrent Locate throughput on the
// sharded engine via b.RunParallel: with GOMAXPROCS > 1 the reported ns/op
// should drop well below BenchmarkLocateWarm's serial per-query latency,
// since queries for unrelated devices share no lock. Compare
//
//	go test -bench 'LocateWarm|LocateParallel' -cpu 1,2,4,8 .
//
// to see the scaling (the acceptance gate for the concurrent engine is
// ≥ 2× single-worker throughput on a multi-core runner).
func BenchmarkLocateParallel(b *testing.B) {
	sys, batch := warmedSystem(b, locater.DependentVariant)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % len(batch)
			q := batch[i]
			if _, err := sys.Locate(q.Device, q.Time); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkLocateBatch measures LocateBatch end to end (one op = the whole
// batch) at a worker pool matching GOMAXPROCS versus a single worker — the
// serialized baseline the global-mutex engine was limited to.
func BenchmarkLocateBatch(b *testing.B) {
	sys, batch := warmedSystem(b, locater.DependentVariant)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"gomaxprocs", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := sys.LocateBatch(batch, bc.workers)
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkIngest measures bulk ingestion throughput.
func BenchmarkIngest(b *testing.B) {
	ds, err := experiments.BuildDBH(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := locater.New(locater.Config{Building: ds.Building})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Ingest(ds.Events); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ds.Events)))
}

// BenchmarkScorePrecision measures the evaluation harness itself.
func BenchmarkScorePrecision(b *testing.B) {
	ds, err := experiments.BuildDBH(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	queries, err := experiments.SampleDefaultQueries(ds, benchParams, nil)
	if err != nil {
		b.Fatal(err)
	}
	sys := eval.SystemFunc(func(q eval.Query) (eval.Answer, error) {
		return eval.Answer{Outside: q.Truth.Outside, Room: q.Truth.Room}, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Score(ds.Building, sys, queries)
	}
}

// BenchmarkCachesUnderChurn interleaves streaming ingest (ever-new devices,
// a 24h-style churn) with queries and asserts every cache tier stays within
// its bound for the whole run — the bounded-memory property the ad-hoc maps
// lacked. Allocation figures (-benchmem) show the steady state.
func BenchmarkCachesUnderChurn(b *testing.B) {
	sys, batch := warmedSystem(b, locater.IndependentVariant)
	aps := sys.Building().AccessPoints()
	base := batch[0].Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := locater.DeviceID("churn-" + strconv.Itoa(i))
		t := base.Add(time.Duration(i%1440) * time.Minute)
		if err := sys.IngestOne(locater.Event{Device: dev, Time: t, AP: aps[i%len(aps)]}); err != nil {
			b.Fatal(err)
		}
		q := batch[i%len(batch)]
		if _, err := sys.Locate(q.Device, q.Time); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cs := sys.CacheStats()
	for name, tier := range map[string]locater.CacheTierStats{
		"affinity": cs.Affinity, "coarse": cs.CoarseModels, "results": cs.Results,
	} {
		if tier.Size > tier.Capacity {
			b.Fatalf("%s cache size %d exceeds capacity %d", name, tier.Size, tier.Capacity)
		}
	}
	b.ReportMetric(float64(cs.Affinity.Size+cs.CoarseModels.Size+cs.Results.Size), "resident-entries")
}
