package main

import "time"

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlSteadyRead    = "steady-read"
	wlHotDashboard  = "hot-dashboard"
	wlLiveMixed     = "live-mixed"
	wlImportRestart = "import-restart"
)

var workloadNames = []string{wlSteadyRead, wlHotDashboard, wlLiveMixed, wlImportRestart}

// params fixes every rate and size of the benchmark. They are literals, not
// calibrated at run time, so two commits always face the same load. Phase
// lengths come from -seconds (the driver's run_seconds); counts the ISSUE
// gave per phase are given here per second of it.
type params struct {
	// Dataset: sim.DBH(perClass) for days days from simStart, generated from
	// datasetSeed.
	perClass, days int

	// clients is the number of closed-loop client goroutines (nproc is 2);
	// every request carries deadline as its deadline_ms.
	clients  int
	deadline time.Duration

	// Import: bulkShare of the history goes in bulkBatch-event batches, then
	// EstimateDeltas and Checkpoint, then the rest in tailBatch-event batches.
	bulkBatch, tailBatch int
	bulkShare            float64

	// Serving warm-up after the one-query-per-device pass, and the scoring
	// pass. Steady reads fall in steadyMinutesOfDay minutes from 09:00 on
	// steadyDays days.
	steadyWarmOps      int
	hotWarmOpsPerSec   int
	scoreQueries       int
	steadyDays         int
	steadyMinutesOfDay int

	// hot-dashboard: Zipf(zipfS) device, one of hotTimes fixed times,
	// hotBatchShare of the ops a batch of batchSize queries.
	zipfS         float64
	hotTimes      int
	hotBatchShare float64
	batchSize     int

	// live-mixed: one feed client sends a chunk of feedChunk events every
	// feedPeriod, feedDirtyShare of them dirtied, beside one closed-loop
	// reader; frontierShare of the reads target a device of the last
	// frontierEvents fed events up to frontierMaxAhead after its newest one,
	// the rest continue steady-read's sequence. A chunk sent more than
	// maxFeedLateness late fails the run.
	feedPeriod       time.Duration
	feedChunk        int
	feedDirtyShare   float64
	frontierShare    float64
	frontierEvents   int
	frontierMaxAhead time.Duration
	maxFeedLateness  time.Duration

	// import-restart: checkAnswers answers over checkDevices devices are
	// compared across the crash.
	checkAnswers, checkDevices int

	// Traced run: serial op lists, sized per second of -seconds. live-mixed's
	// is its feed schedule with tracedReadsPerChunk reads after every chunk;
	// import-restart's are the first-touch queries its untraced run answers.
	tracedSteadyOpsPerSec int
	tracedHotOpsPerSec    int
	tracedReadsPerChunk   int

	// precisionFloor is the precision_fine below which a run is incorrect.
	precisionFloor float64
}

// datasetSeed seeds the simulator. The population is a fixture of the
// benchmark, like the building: -seed draws every op list over it, not the
// people (README.md, "Seeds").
const datasetSeed = 1

// fullScale is what `go run ./benchmark` measures.
//
// The ISSUE sized the dataset at DBH(150) × 28 days (600 devices, a 20 s
// warm-up). The builder's contract caps 92 runs plus two builds at 3420 s,
// so the population is 160 devices — warm-up is one model training per
// device — and the history 35 days, which gives every device at least one
// sealed 512-event segment (28 days left half of them with none).
//
// The feed sends 3 events a chunk where the ISSUE has 16 for 600 devices. A
// settled read takes 0.4 ms and retraining a dropped model 37 ms, so a
// closed-loop reader is either under half busy retraining, with even its p95
// a settled read, or close to saturated, where a tenth more training halves
// its throughput: at 5 a chunk (the ISSUE's per-device rate) locate_qps spread
// 11–22% across seeds, at 16 the reader got 200 reads done in ten seconds.
var fullScale = params{
	perClass: 40, days: 35,
	clients: 2, deadline: 5 * time.Second,

	bulkBatch: 4096, tailBatch: 64, bulkShare: 0.95,

	steadyWarmOps: 1000, hotWarmOpsPerSec: 2000, scoreQueries: 4000,
	steadyDays: 5, steadyMinutesOfDay: 8 * 60,

	zipfS: 1.1, hotTimes: 8, hotBatchShare: 0.10, batchSize: 16,

	feedPeriod: 250 * time.Millisecond, feedChunk: 3, feedDirtyShare: 0.20,
	frontierShare: 0.30, frontierEvents: 64, frontierMaxAhead: 10 * time.Minute,
	maxFeedLateness: time.Second,

	checkAnswers: 50, checkDevices: 2,

	tracedSteadyOpsPerSec: 300, tracedHotOpsPerSec: 2000, tracedReadsPerChunk: 5,

	precisionFloor: 0.55,
}

// shortScale runs the same code on a dataset small enough for tier-1 tests.
var shortScale = func() params {
	p := fullScale
	p.perClass, p.days = 3, 10
	p.bulkBatch, p.tailBatch = 256, 16
	p.steadyWarmOps, p.hotWarmOpsPerSec, p.scoreQueries = 40, 200, 60
	p.checkAnswers, p.checkDevices = 10, 4
	p.tracedSteadyOpsPerSec, p.tracedHotOpsPerSec = 60, 200
	// Ten days of twelve devices cannot reach the full dataset's precision;
	// the smoke run only proves the floor is checked.
	p.precisionFloor = 0.05
	return p
}()

// simStart is the first simulated day, a Monday (sim.Generate's default).
var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// steadyFirstDay is the day index the steady reads start on: a week before
// the end, a Monday when days is a multiple of seven.
func (p params) steadyFirstDay() int { return p.days - 7 }

// feedStart is when the live feed begins: 09:00 on the last simulated day.
func (p params) feedStart() time.Time {
	return simStart.AddDate(0, 0, p.days-1).Add(9 * time.Hour)
}
