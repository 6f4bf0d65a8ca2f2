package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locater"
	"locater/internal/eval"
	"locater/internal/event"
	"locater/internal/sim"
	"locater/internal/srv"
)

// runConfig is one invocation: a workload, a seed, a phase length.
type runConfig struct {
	p        params
	workload string
	seed     int64 // draws every op list; the dataset is the same on every run
	seconds  int
	out      string // directory for data dirs, result and trace files
}

// runResult is what one run measured and whether its answers were correct.
type runResult struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	metrics  metricSet
	// aux are readings beside the contract's metric set: the mean latency,
	// feed lateness, the host's steal share.
	aux       map[string]value
	oplist    string
	attempted int
	failed    int
	reasons   []string
}

func newRunResult(rc runConfig, traced bool) *runResult {
	return &runResult{workload: rc.workload, seed: rc.seed, seconds: rc.seconds, traced: traced, metrics: metricSet{}, aux: map[string]value{}}
}

func (r *runResult) correct() bool { return r.failed == 0 }

// gate records a whole-run check (not one operation) that did not hold.
func (r *runResult) gate(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.failed++
	r.attempted++
	r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
}

// gatePrecision fails the run when precision_fine is under the floor.
func (r *runResult) gatePrecision(p params) {
	pf := r.metrics["precision_fine"].Value
	r.gate(pf >= p.precisionFloor, "precision_fine %.3f is below the floor %.2f", pf, p.precisionFloor)
}

func (r *runResult) absorb(chk *checker) {
	r.attempted += chk.attempted
	r.failed += chk.failed
	r.reasons = append(r.reasons, chk.reasons...)
}

// --- the deployment every workload starts from ---------------------------------------

// deployment is an engine that has been imported, crashed and recovered, the
// state a restarted locater-serve is in, with what getting there measured.
type deployment struct {
	eng        locater.Locater
	imps       []importStats
	recoveryNs []int64
	baseline   uint64 // collected heap before the last Open, dataset already generated
}

// lifecycleCounts sizes the import cycles and crash re-opens of a run from
// -seconds: at the driver's run_seconds of 10 they are the ISSUE's 5 imports
// and 10 re-opens.
func lifecycleCounts(seconds int) (imports, reopens int) {
	return max(3, seconds/2), max(3, seconds)
}

// deploy imports events `imports` times, each into a fresh directory, then
// crashes and re-opens the last directory `reopens` times; the last re-opened
// engine is the one that answers. Every re-open must recover exactly the
// events the import acknowledged.
func deploy(p params, open opener, dir string, events []event.Event, imports, reopens int, chk *checker) (*deployment, error) {
	d := &deployment{}
	var eng locater.Locater
	var last string
	for i := 0; i < imports; i++ {
		eng = nil
		if last != "" {
			os.RemoveAll(last)
		}
		last = filepath.Join(dir, fmt.Sprintf("import-%d", i))
		runtime.GC() // the abandoned engine's garbage is not charged to this import
		var st importStats
		var err error
		if eng, st, err = importCycle(p, open, last, events); err != nil {
			return nil, err
		}
		chk.attempted++
		if st.events != len(events) {
			chk.fail("import %d acknowledged %d of %d events", i, st.events, len(events))
		}
		d.imps = append(d.imps, st)
	}
	for r := 0; r < reopens; r++ {
		eng = nil // the crash: the engine is abandoned, never closed
		// Collected before every Open, so that the abandoned engine's garbage
		// is not charged to it; the last reading is the baseline of
		// resident_bytes_per_event.
		d.baseline = heapAfterGC()
		t0 := time.Now()
		var err error
		if eng, err = open(last); err != nil {
			return nil, fmt.Errorf("re-open %d: %w", r, err)
		}
		d.recoveryNs = append(d.recoveryNs, int64(time.Since(t0)))
		chk.attempted++
		if eng.NumEvents() != len(events) {
			chk.fail("re-open %d recovered %d events, %d were acknowledged", r, eng.NumEvents(), len(events))
		}
	}
	d.eng = eng
	return d, nil
}

// crashCheck is import-restart's last correctness step, after everything that
// is timed: one more import cycle answers the queries, is abandoned without
// Close, and the engine recovered from its directory must give the same
// answers. (Both engines are fresh: an engine that has served queries orders
// neighbors by the affinities it has merged, and may stop a sweep elsewhere.)
func crashCheck(p params, open opener, dir string, events []event.Event, queries []eval.Query, chk *checker) error {
	eng, _, err := importCycle(p, open, dir, events)
	if err != nil {
		return err
	}
	before, _ := answerAll(eng, queries, chk)
	if eng, err = open(dir); err != nil {
		return fmt.Errorf("re-open for the crash check: %w", err)
	}
	after, _ := answerAll(eng, queries, chk)
	chk.attempted++
	if !reflect.DeepEqual(before, after) {
		chk.fail("answers differ across the crash: %d sampled", len(queries))
	}
	return nil
}

// lifecycleMetrics reports what the import cycles and crash re-opens
// measured. Only disk_bytes_per_event is a bounded metric. The three timings
// — import throughput at the median full bulk batch, the median ack of the
// small batches that end every cycle (live-mixed prints its feed's instead),
// the median re-open — are auxiliary readings: the whole lifecycle is two
// seconds of fsyncs and file mappings, and a slow few seconds of the host
// move all three by a third (README.md, "End-to-end metrics").
func lifecycleMetrics(res *runResult, p params, d *deployment) {
	var batchNs, tailNs []int64
	var disk []float64
	for _, st := range d.imps {
		batchNs = append(batchNs, st.bulkBatchNs...)
		tailNs = append(tailNs, st.tailAckNs...)
		disk = append(disk, float64(st.diskBytes)/float64(st.events))
	}
	recoveryNs := slices.Clone(d.recoveryNs)
	slices.Sort(batchNs)
	slices.Sort(tailNs)
	slices.Sort(recoveryNs)
	res.metrics.set("disk_bytes_per_event", median(disk), len(disk))
	res.aux["ingest_events_per_s"] = value{Value: safeDiv(float64(p.bulkBatch), float64(percentile(batchNs, 0.5))/1e9), Unit: "1/s", Samples: len(batchNs)}
	res.aux["ingest_ack_p50_us"] = value{Value: float64(percentile(tailNs, 0.5)) / 1e3, Unit: "us", Samples: len(tailNs)}
	res.aux["recovery_s"] = value{Value: float64(percentile(recoveryNs, 0.5)) / 1e9, Unit: "s", Samples: len(recoveryNs)}
}

// --- the timed phase -----------------------------------------------------------------

// phase is what a timed phase measured.
type phase struct {
	latNs     []int64 // latencies of single locates
	answers   int     // locate answers, a batch counting its queries
	seconds   float64 // wall time of the phase
	allocated uint64  // MemStats.TotalAlloc delta, the load generator included
}

// phaseMetrics fills the metrics every timed phase yields. Percentiles are
// exact sorted-sample ones, printed with their sample count. p99 is an
// auxiliary reading: between identical quiet runs of steady-read it spread
// 17–24% where p95 spread 4%, which no bound the driver accepts can hold.
func phaseMetrics(res *runResult, ph phase) error {
	if len(ph.latNs) == 0 {
		return fmt.Errorf("%s: the timed phase answered no locate", res.workload)
	}
	slices.Sort(ph.latNs)
	res.metrics.set("locate_qps", float64(ph.answers)/ph.seconds, ph.answers)
	res.metrics.set("alloc_bytes_per_locate", float64(ph.allocated)/float64(ph.answers), ph.answers)
	res.metrics.set("locate_p50_us", float64(percentile(ph.latNs, 0.50))/1e3, len(ph.latNs))
	res.metrics.set("locate_p95_us", float64(percentile(ph.latNs, 0.95))/1e3, len(ph.latNs))
	res.aux["locate_p99_us"] = value{Value: float64(percentile(ph.latNs, 0.99)) / 1e3, Unit: "us", Samples: len(ph.latNs)}
	res.aux["locate_mean_us"] = value{Value: float64(sum64(ph.latNs)) / float64(len(ph.latNs)) / 1e3, Unit: "us", Samples: len(ph.latNs)}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// loopResult is what one closed-loop client measured.
type loopResult struct {
	latNs   []int64
	answers int
	chk     *checker
}

// closedLoop runs one client: the next request goes out when the previous
// one is answered, until stop. Latency is request start to response written;
// the response is checked after the clock is read.
func closedLoop(c client, next func() sim.Op, deadline time.Duration, stop time.Time, chk *checker) loopResult {
	lr := loopResult{latNs: make([]int64, 0, 1<<16), chk: chk}
	for time.Now().Before(stop) {
		op := next()
		req := buildRequest(op, deadline)
		t0 := time.Now()
		status, body := c.do(req.method, req.path, req.body)
		lat := time.Since(t0)
		n := chk.response(op, status, body, lat, deadline)
		lr.answers += n
		if op.Kind == sim.OpLocate && n == 1 {
			lr.latNs = append(lr.latNs, int64(lat))
		}
	}
	return lr
}

// closedLoops runs the given clients side by side until stop and merges what
// they measured.
func closedLoops(c client, streams []func() sim.Op, deadline time.Duration, stop time.Time, chk *checker) (latNs []int64, answers int) {
	loops := make([]loopResult, len(streams))
	var wg sync.WaitGroup
	for i, next := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loops[i] = closedLoop(c, next, deadline, stop, chk.fork())
		}()
	}
	wg.Wait()
	for _, lr := range loops {
		latNs = append(latNs, lr.latNs...)
		answers += lr.answers
		chk.merge(lr.chk)
	}
	return latNs, answers
}

// feedSpin is how long before a chunk is due the feed client stops sleeping.
const feedSpin = 2 * time.Millisecond

// feedResult is what live-mixed's paced feed client measured.
type feedResult struct {
	ackNs      []int64 // chunk ack latency from its due time
	latenessNs []int64 // how late after its due time each chunk was sent
}

// runFeed is live-mixed's write client, an open loop with one request in
// flight: chunk i is due i periods after start whatever the acks before it
// took, and its ack is timed from that due time, so a stall is charged to
// every chunk it delays. A chunk sent more than p.maxFeedLateness late means
// the feed lost its schedule and counts as a failed operation. fed is the
// number of chunks acknowledged, for the reader running beside the feed.
func runFeed(c client, p params, chunks []sim.Op, start time.Time, fed *atomic.Int64, chk *checker) feedResult {
	var out feedResult
	for i, chunk := range chunks {
		req := buildRequest(chunk, p.deadline)
		due := start.Add(time.Duration(i) * p.feedPeriod)
		// Sleep to just short of the due time and spin the rest: a sleeping
		// goroutine on two busy cores wakes milliseconds late, and that
		// lateness would be most of an ack timed from the due time.
		time.Sleep(time.Until(due) - feedSpin)
		for time.Now().Before(due) {
		}
		late := time.Since(due)
		out.latenessNs = append(out.latenessNs, int64(late))
		if late > p.maxFeedLateness {
			chk.fail("feed chunk %d was sent %v after it was due", i, late)
		}
		status, body := c.do(req.method, req.path, req.body)
		ack := time.Since(due)
		chk.response(chunk, status, body, ack, p.deadline)
		out.ackNs = append(out.ackNs, int64(ack))
		fed.Store(int64(i + 1))
	}
	return out
}

// feedBesideReader is live-mixed's timed phase: the paced feed client and one
// closed-loop reader, side by side until both are done. The reader asks the
// feed how far it has got before every read.
func feedBesideReader(c client, p params, pl *plan, seed int64, start, stop time.Time, chk *checker) (latNs []int64, answers int, feed feedResult) {
	var fed atomic.Int64
	feedChk := chk.fork()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feed = runFeed(c, p, pl.feed.chunks, start, &fed, feedChk)
	}()
	reads := newLiveReads(p, pl.keys, pl.feed, seed)
	next := func() sim.Op { return reads.next(int(fed.Load())) }
	latNs, answers = closedLoops(c, []func() sim.Op{next}, p.deadline, stop, chk)
	wg.Wait()
	chk.merge(feedChk)
	return latNs, answers, feed
}

// run measures one workload with tracing off.
func run(rc runConfig) (*runResult, error) {
	dir, err := newOutDir(rc.out, "data-"+rc.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := rc.p
	began := time.Now()
	res := newRunResult(rc, false)

	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	chk := newChecker(ds.Building)
	pl, err := newPlan(p, ds, rc.workload, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	res.oplist = pl.digest()
	live := rc.workload == wlLiveMixed
	imports, reopens := lifecycleCounts(rc.seconds)
	open := systemOpener(engineConfig(ds.Building, live))
	dep, err := deploy(p, open, dir, pl.history, imports, reopens, chk)
	if err != nil {
		return nil, err
	}
	lifecycleMetrics(res, p, dep)
	events := float64(len(pl.history))

	var ph phase
	var warmAlloc uint64 // live-mixed: what the warm-up's settled reads allocated
	if rc.workload == wlImportRestart {
		// No warm-up: the restarted engine's first answers are the workload.
		// One cold query per device — every segment trailer parsed for the
		// first time, every model untrained — then the scored queries on the
		// same engine, which train whatever the first touches did not. The
		// median and p95 are warm answers; the cold ones are the slowest 1.5%
		// and most of the phase's time, so they set locate_qps.
		res.metrics.set("resident_bytes_per_event", residentBytes(dep.eng, dep.baseline)/events, 0)
		res.metrics.set("setup_s", time.Since(began).Seconds(), 0)
		queries := append(slices.Clone(pl.firstTouch), pl.scored...)
		allocBefore := totalAlloc()
		t0 := time.Now()
		answers, latNs := answerAll(dep.eng, queries, chk)
		ph = phase{latNs: latNs, answers: len(queries), seconds: time.Since(t0).Seconds(), allocated: totalAlloc() - allocBefore}
		setPrecision(res, eval.Score(ds.Building, replayScorer(answers), queries))
		res.aux["first_touch_mean_us"] = value{Value: float64(sum64(latNs[:len(pl.firstTouch)])) / float64(len(pl.firstTouch)) / 1e3, Unit: "us", Samples: len(pl.firstTouch)}
		if err := crashCheck(p, open, filepath.Join(dir, "crash-check"), pl.history, pl.checks, chk); err != nil {
			return nil, err
		}
	} else {
		c := client{h: srv.New(dep.eng)}
		// live-mixed's warm-up ends with p.steadyWarmOps settled reads; what
		// they allocate is its alloc_bytes_per_locate, below.
		settled := len(pl.warm)
		if live {
			settled -= p.steadyWarmOps
		}
		serveOps(c, chk, pl.warm[:settled], p.deadline)
		warmAlloc = totalAlloc()
		serveOps(c, chk, pl.warm[settled:], p.deadline)
		warmAlloc = totalAlloc() - warmAlloc
		if !live {
			setPrecision(res, scoreServed(c, chk, ds.Building, pl.scored, p.deadline))
		}
		res.metrics.set("resident_bytes_per_event", residentBytes(dep.eng, dep.baseline)/events, 0)
		res.metrics.set("setup_s", time.Since(began).Seconds(), 0)

		allocBefore := totalAlloc()
		start := time.Now()
		stop := start.Add(time.Duration(rc.seconds) * time.Second)
		switch rc.workload {
		case wlLiveMixed:
			var feed feedResult
			ph.latNs, ph.answers, feed = feedBesideReader(c, p, pl, rc.seed, start, stop, chk)
			feedMetrics(res, feed)
		case wlHotDashboard:
			streams := make([]func() sim.Op, p.clients)
			for i := range streams {
				streams[i] = newHotStream(p, ds, rc.seed, i+1).next
			}
			ph.latNs, ph.answers = closedLoops(c, streams, p.deadline, stop, chk)
		default:
			streams := make([]func() sim.Op, p.clients)
			for i := range streams {
				streams[i] = (&steadyStream{keys: pl.keys, pos: p.steadyWarmOps + i, stride: p.clients}).next
			}
			ph.latNs, ph.answers = closedLoops(c, streams, p.deadline, stop, chk)
		}
		ph.seconds = time.Since(start).Seconds()
		ph.allocated = totalAlloc() - allocBefore
		if live {
			// Scored once the feed is all in: the window it replayed, then
			// the settled week.
			replayed := scoreServed(c, chk, ds.Building, pl.scored[:pl.replayed], p.deadline)
			pr := scoreServed(c, chk, ds.Building, pl.scored[pl.replayed:], p.deadline)
			pr.Add(replayed)
			setPrecision(res, pr)
			res.aux["replayed_precision_fine"] = value{Value: replayed.Pf(), Unit: "ratio", Samples: replayed.CorrectRegion}
			res.aux["replayed_precision_coarse"] = value{Value: replayed.Pc(), Unit: "ratio", Samples: replayed.Queries}
		}
	}
	if err := phaseMetrics(res, ph); err != nil {
		return nil, err
	}
	if live {
		// How many models the reader retrains, and so what it allocates per
		// answer, depends on how its reads fall between the feed's chunks:
		// 6–12% between runs, against the 0.5% this metric repeats to on the
		// workloads it is meant for. live-mixed reports the serial settled
		// reads of its warm-up instead, and the timed phase's figure beside it.
		res.aux["timed_alloc_bytes_per_locate"] = res.metrics["alloc_bytes_per_locate"]
		res.metrics.set("alloc_bytes_per_locate", float64(warmAlloc)/float64(p.steadyWarmOps), p.steadyWarmOps)
	}
	res.absorb(chk)
	res.gatePrecision(p)
	return res, nil
}

// feedMetrics reports the paced feed: its median ack, from the due time, is
// live-mixed's ingest_ack_p50_us reading, and its lateness proves it kept its
// schedule.
func feedMetrics(res *runResult, feed feedResult) {
	slices.Sort(feed.ackNs)
	slices.Sort(feed.latenessNs)
	n := len(feed.ackNs)
	res.aux["ingest_ack_p50_us"] = value{Value: float64(percentile(feed.ackNs, 0.5)) / 1e3, Unit: "us", Samples: n}
	res.aux["ingest_ack_p95_us"] = value{Value: float64(percentile(feed.ackNs, 0.95)) / 1e3, Unit: "us", Samples: n}
	res.aux["loadgen.feed_lateness_p95_us"] = value{Value: float64(percentile(feed.latenessNs, 0.95)) / 1e3, Unit: "us", Samples: n}
	res.aux["loadgen.feed_lateness_max_us"] = value{Value: float64(feed.latenessNs[n-1]) / 1e3, Unit: "us", Samples: n}
}

func setPrecision(res *runResult, pr eval.Precision) {
	res.metrics.set("precision_fine", pr.Pf(), pr.CorrectRegion)
	res.metrics.set("precision_coarse", pr.Pc(), pr.Queries)
}

// --- the Go API, for import-restart and the crash check --------------------------------

// answerOne asks one query through the Go API and checks the answer; a
// failed query answers the zero Result.
func answerOne(eng locater.Locater, d event.DeviceID, t time.Time, chk *checker) (locater.Result, int64) {
	chk.attempted++
	t0 := time.Now()
	res, err := eng.Locate(d, t)
	ns := int64(time.Since(t0))
	switch {
	case err != nil:
		chk.fail("locate %s at %v: %v", d, t, err)
		return locater.Result{}, ns
	case !res.Outside && !chk.rooms[res.Region][res.Room]:
		chk.fail("device %s at %v: room %q is not covered by region %q", d, t, res.Room, res.Region)
	}
	return res, ns
}

// answerAll answers queries through the Go API, serially, in order.
func answerAll(eng locater.Locater, queries []eval.Query, chk *checker) ([]locater.Result, []int64) {
	out := make([]locater.Result, len(queries))
	latNs := make([]int64, len(queries))
	for i, q := range queries {
		out[i], latNs[i] = answerOne(eng, q.Device, q.Time, chk)
	}
	return out, latNs
}

// replayScorer scores answers already given, in order.
func replayScorer(answers []locater.Result) eval.System {
	i := 0
	return eval.SystemFunc(func(eval.Query) (eval.Answer, error) {
		r := answers[i]
		i++
		return eval.Answer{Outside: r.Outside, Region: r.Region, Room: r.Room}, nil
	})
}
