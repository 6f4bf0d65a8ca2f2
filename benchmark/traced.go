package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"locater"
	"locater/internal/event"
	"locater/internal/sim"
	"locater/internal/srv"
	"locater/internal/store"
	"locater/internal/wal"
)

// The traced run executes one fixed, serial op list on two freshly built
// deployments and records spans from outside the program:
//
//   - pass "system" serves the list from the real locater.System behind
//     srv, wrapped in tracedEngine: it gives srv's self time, the engine
//     total, and every count metric (deltas of System.CacheStats);
//   - pass "rig" serves it from the rig (rig.go), whose decorators split the
//     engine total by layer.
//
// The two passes are interleaved op by op, alternating which goes first: the
// sandbox's speed drifts by tens of percent within a minute, and two passes
// run one after the other differed by up to 30% for that reason alone. A
// paced list is therefore played at half speed.
//
// The run fails when the two passes answer differently, when the rig's engine
// total strays from the system's, or when the span arithmetic does not add up.

// tracedEngine wraps the engine under test with one span per service call and
// sums what only the Go API reports (Algorithm 2's neighbor counts).
type tracedEngine struct {
	locater.Locater
	rec *recorder

	neighborsTotal     int64
	neighborsProcessed int64
}

func (t *tracedEngine) observe(res locater.Result, err error) {
	if err == nil {
		t.neighborsTotal += int64(res.TotalNeighbors)
		t.neighborsProcessed += int64(res.ProcessedNeighbors)
	}
}

func (t *tracedEngine) Locate(d locater.DeviceID, tq time.Time) (locater.Result, error) {
	return t.LocateContext(context.Background(), d, tq)
}

func (t *tracedEngine) LocateContext(ctx context.Context, d locater.DeviceID, tq time.Time) (locater.Result, error) {
	sp := t.rec.begin(spLocate)
	res, err := t.Locater.LocateContext(ctx, d, tq)
	t.rec.end(sp)
	t.observe(res, err)
	return res, err
}

func (t *tracedEngine) LocateBatchContext(ctx context.Context, queries []locater.Query, workers int) []locater.BatchResult {
	sp := t.rec.begin(spBatch)
	out := t.Locater.LocateBatchContext(ctx, queries, workers)
	t.rec.end(sp)
	for _, br := range out {
		t.observe(br.Result, br.Err)
	}
	return out
}

func (t *tracedEngine) Ingest(events []locater.Event) error {
	sp := t.rec.begin(spIngest)
	defer t.rec.end(sp)
	return t.Locater.Ingest(events)
}

func (t *tracedEngine) Checkpoint() error {
	sp := t.rec.begin(spCheckpoint)
	defer t.rec.end(sp)
	return t.Locater.Checkpoint()
}

// tracedSystemOpener opens the real System under a span, wrapped.
func tracedSystemOpener(cfg locater.Config, rec *recorder) opener {
	open := systemOpener(cfg)
	return func(dir string) (locater.Locater, error) {
		sp := rec.begin(spOpen)
		eng, err := open(dir)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		return &tracedEngine{Locater: eng, rec: rec}, nil
	}
}

// spanHandler puts the request span tightly around ServeHTTP, so building
// the request and reading the response stay outside srv's time.
type spanHandler struct {
	h   http.Handler
	rec *recorder
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := s.rec.begin(spRequest)
	s.h.ServeHTTP(w, r)
	s.rec.end(sp)
}

// passResult is one side of the traced run: its deployment while the run
// lasts, and what it measured.
type passResult struct {
	name   string
	rec    *recorder
	counts *rigCounts // rig pass only
	chk    *checker
	eng    locater.Locater
	c      client // serving workloads

	from int // first span of the op list
	ops  traceSummary
	life traceSummary

	imp         importStats
	recoveryNs  []int64            // the crash re-opens of the set-up
	before      locater.CacheStats // at the start of the op list
	after       locater.CacheStats
	answersOps  int64 // locate answers in the op list
	neighTotal  int64
	neighProc   int64
	pairsBefore int64
	neighBefore int64

	bodies    [][]byte         // serving: response bodies, in op order
	results   []locater.Result // import-restart: answers, in order
	requests  int
	rejected  int
	respBytes int64
	reqNs     []int64 // per-request latency, client side
	locateNs  []int64 // per-single-locate latency
	ingestNs  []int64 // per-ingest-request latency
	engineNs  int64   // total of top-level engine spans in the op list
}

// minGatedEngineNs is the mean engine time per request under which the
// traced run's two timing gates are not enforced.
const minGatedEngineNs = 50_000

// engineTotal sums the engine-level spans of [from, to) that are not nested
// in another engine-level span: the time the engine spent on the op list.
func engineTotal(rec *recorder, from, to int) int64 {
	isEngine := func(n int32) bool {
		return n == spLocate || n == spBatch || n == spIngest || n == spCheckpoint || n == spOpen
	}
	var total int64
	for _, s := range rec.spans[from:to] {
		if !isEngine(s.name) {
			continue
		}
		if s.parent >= 0 && isEngine(rec.spans[s.parent].name) {
			continue
		}
		total += s.end - s.start
	}
	return total
}

func gcPauseTotal() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// runTraced measures one workload's per-layer metrics.
func runTraced(rc runConfig) (*runResult, error) {
	dir, err := newOutDir(rc.out, "data-"+rc.workload+"-traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := rc.p
	res := newRunResult(rc, true)

	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	pl, err := newPlan(p, ds, rc.workload, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	res.oplist = pl.digest()
	serving := rc.workload != wlImportRestart
	cfg := engineConfig(ds.Building, rc.workload == wlLiveMixed)

	// Build both deployments: one import cycle and the crash re-opens. On
	// import-restart they are part of the traced list; they run pass after
	// pass, a second apart.
	sys := &passResult{name: "system", rec: newRecorder(), chk: newChecker(ds.Building)}
	rig := &passResult{name: "rig", rec: newRecorder(), chk: newChecker(ds.Building), counts: &rigCounts{}}
	passes := []*passResult{sys, rig}
	pause := gcPauseTotal()
	began := time.Now()
	for _, pr := range passes {
		open := tracedSystemOpener(cfg, pr.rec)
		if pr.counts != nil {
			open = rigOpener(cfg, pr.rec, pr.counts)
		}
		_, reopens := lifecycleCounts(rc.seconds)
		dep, err := deploy(p, open, filepath.Join(dir, pr.name), pl.history, 1, reopens, pr.chk)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", pr.name, err)
		}
		pr.imp, pr.recoveryNs, pr.eng = dep.imps[0], dep.recoveryNs, dep.eng
		if !serving {
			pr.requests = len(pr.imp.bulkBatchNs) + len(pr.imp.tailAckNs) + reopens
			continue // the whole cycle is the op list: from stays 0, before stays zero
		}
		pr.c = client{h: spanHandler{h: srv.New(dep.eng), rec: pr.rec}}
		serveOps(pr.c, pr.chk, pl.warm, p.deadline)
		pr.from = pr.rec.mark()
		pr.before = dep.eng.CacheStats()
		if te, ok := dep.eng.(*tracedEngine); ok {
			pr.neighTotal, pr.neighProc = -te.neighborsTotal, -te.neighborsProcessed
		}
		if pr.counts != nil {
			pr.pairsBefore, pr.neighBefore = pr.counts.fallbackPairs.Load(), pr.counts.neighborsReturned.Load()
		}
	}
	if serving {
		pause, began = gcPauseTotal(), time.Now()
	}

	// The op list, interleaved.
	var latenessNs []int64
	start := time.Now()
	for i, t := range pl.serial {
		if t.paced {
			due := start.Add(time.Duration(len(passes)) * t.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late := time.Since(due)
			latenessNs = append(latenessNs, int64(late))
			res.gate(late <= p.maxFeedLateness, "the paced feed fell %v behind its schedule at op %d", late, i)
		}
		first, second := sys, rig
		if i%2 == 1 {
			first, second = rig, sys
		}
		first.do(t.op, p, serving)
		second.do(t.op, p, serving)
	}
	elapsed := time.Since(began)
	gcPauseNs := gcPauseTotal() - pause

	for _, pr := range passes {
		pr.after = pr.eng.CacheStats()
		if te, ok := pr.eng.(*tracedEngine); ok {
			pr.neighTotal += te.neighborsTotal
			pr.neighProc += te.neighborsProcessed
		}
		res.absorb(pr.chk)
		to := pr.rec.mark()
		pr.ops = pr.rec.summarize(pr.from, to)
		pr.life = pr.rec.summarize(0, to)
		pr.engineNs = engineTotal(pr.rec, pr.from, to)
	}

	// Gates.
	if serving {
		same := len(sys.bodies) == len(rig.bodies)
		for i := 0; same && i < len(sys.bodies); i++ {
			same = bytes.Equal(sys.bodies[i], rig.bodies[i])
		}
		res.gate(same, "the rig's responses differ from System's")
	} else {
		res.gate(reflect.DeepEqual(sys.results, rig.results), "the rig's answers differ from System's")
	}
	for _, pr := range passes {
		res.gate(pr.ops.selfNs == pr.ops.rootNs, "%s pass: self times sum to %d ns, root spans to %d ns", pr.name, pr.ops.selfNs, pr.ops.rootNs)
	}
	// The two timing gates compare the passes to a tenth. They are enforced
	// where a tenth of what the engine does per request is more than recording
	// the rig's spans costs (0.1–1 µs a span, by the machine's mood): on
	// hot-dashboard the engine answers from the result cache in a microsecond
	// or two, the rig's two or three spans per answer cost as much again, and
	// the ratio is printed, not gated.
	overhead := safeDiv(float64(sum64(rig.reqNs)), float64(sum64(sys.reqNs)))
	if sys.engineNs/int64(sys.requests) >= minGatedEngineNs {
		diff := rig.engineNs - sys.engineNs
		res.gate(diff <= sys.engineNs/10 && -diff <= sys.engineNs/10, "rig engine total %.3f ms is not within 10%% of System's %.3f ms", float64(rig.engineNs)/1e6, float64(sys.engineNs)/1e6)
		res.gate(overhead <= 1.10, "trace overhead ratio %.3f exceeds 1.10", overhead)
	} else {
		res.aux["timing_gates_skipped"] = value{Value: 1, Unit: "count"}
	}

	perLayerMetrics(res, rc, sys, rig, overhead)
	res.metrics.set("runtime.gc_pause_ms_per_s", safeDiv(float64(gcPauseNs)/1e6, elapsed.Seconds()), 0)
	if len(latenessNs) > 0 {
		slices.Sort(latenessNs)
		res.metrics.set("loadgen.feed_lateness_p95_us", float64(percentile(latenessNs, 0.95))/1e3, len(latenessNs))
	}
	if err := writeTrace(filepath.Join(rc.out, "trace-"+rc.workload+".json"), rc.workload, rc.seed,
		[]tracePass{{name: sys.name, rec: sys.rec}, {name: rig.name, rec: rig.rec}}); err != nil {
		return nil, err
	}
	printSelfTimes(passes)
	return res, nil
}

// do executes one op of the traced list on this pass's deployment: through
// srv on a serving workload, through the Go API on import-restart.
func (pr *passResult) do(op sim.Op, p params, serving bool) {
	pr.requests++
	if !serving {
		res, ns := answerOne(pr.eng, op.Query.Device, op.Query.Time, pr.chk)
		pr.reqNs = append(pr.reqNs, ns)
		pr.locateNs = append(pr.locateNs, ns)
		pr.results = append(pr.results, res)
		pr.answersOps++
		pr.neighTotal += int64(res.TotalNeighbors)
		pr.neighProc += int64(res.ProcessedNeighbors)
		return
	}
	req := buildRequest(op, p.deadline)
	t0 := time.Now()
	status, body := pr.c.do(req.method, req.path, req.body)
	service := time.Since(t0)
	pr.answersOps += int64(pr.chk.response(op, status, body, service, p.deadline))
	pr.respBytes += int64(len(body))
	pr.reqNs = append(pr.reqNs, int64(service))
	if status == http.StatusTooManyRequests {
		pr.rejected++
	}
	switch op.Kind {
	case sim.OpIngest:
		pr.ingestNs = append(pr.ingestNs, int64(service))
	case sim.OpLocate:
		pr.locateNs = append(pr.locateNs, int64(service))
	}
	pr.bodies = append(pr.bodies, body)
}

// perLayerMetrics derives every per-layer metric from the two passes. Span
// metrics come from the rig pass (srv's from the system pass, where srv
// wraps the real engine); count metrics come from the system pass.
//
// Scope: query-path metrics cover the op list. Write-path span metrics cover
// the op list when it ingests (live-mixed, import-restart) and the set-up
// import otherwise, so they are never empty. Storage-shape metrics (bytes per
// event, seals, checkpoint) describe the import cycle every workload starts
// from.
func perLayerMetrics(res *runResult, rc runConfig, sys, rig *passResult, overhead float64) {
	m := res.metrics
	us := func(ns int64, per float64) float64 { return safeDiv(float64(ns)/1e3, per) }
	L := float64(sys.answersOps)
	R := float64(sys.requests)
	ops := &rig.ops.byName
	write := &rig.ops.byName
	if write[spIngest].count == 0 {
		write = &rig.life.byName
	}
	batches := float64(write[spStoreIngest].count)
	events := float64(sys.imp.events)
	a, b := sys.before, sys.after
	share := func(hit, miss int64) float64 { return safeDiv(float64(hit), float64(hit+miss)) }

	// srv
	m.set("srv.self_us_per_req", us(sys.ops.byName[spRequest].self, float64(sys.ops.byName[spRequest].count)), sys.ops.byName[spRequest].count)
	if n := sys.ops.byName[spRequest].count; n > 0 {
		m.set("srv.resp_bytes_per_req", float64(sys.respBytes)/R, n)
		m.set("srv.rejected_share", float64(sys.rejected)/R, n)
	}
	// Two of the readings that do not repeat well enough to carry a bound,
	// as the serial list gives them: no second client, no contention.
	slices.Sort(sys.locateNs)
	m.set("srv.locate_p99_us", float64(percentile(sys.locateNs, 0.99))/1e3, len(sys.locateNs))
	if len(sys.ingestNs) > 0 {
		slices.Sort(sys.ingestNs)
		m.set("srv.ingest_ack_p50_us", float64(percentile(sys.ingestNs, 0.5))/1e3, len(sys.ingestNs))
		m.set("srv.ingest_ack_p95_us", float64(percentile(sys.ingestNs, 0.95))/1e3, len(sys.ingestNs))
	}

	// locater: the import and the re-opens of the system pass's set-up.
	slices.Sort(sys.imp.bulkBatchNs)
	m.set("locater.ingest_events_per_s", safeDiv(float64(rc.p.bulkBatch), float64(percentile(sys.imp.bulkBatchNs, 0.5))/1e9), len(sys.imp.bulkBatchNs))
	slices.Sort(sys.recoveryNs)
	m.set("locater.recovery_ms", float64(percentile(sys.recoveryNs, 0.5))/1e6, len(sys.recoveryNs))
	m.set("locater.self_us_per_locate", us(ops[spLocate].self+ops[spBatch].self, L), int(L))
	m.set("locater.result_cache_hit_share", share(b.Results.Hits-a.Results.Hits, b.Results.Misses-a.Results.Misses), int(L))

	// coarse
	calls := ops[spCoarseLocate].count + ops[spCoarseResolve].count
	m.set("coarse.locate_us_per_call", us(ops[spCoarseLocate].durNs+ops[spCoarseResolve].durNs, float64(calls)), calls)
	m.set("coarse.calls_per_locate", safeDiv(float64(calls), L), int(L))
	m.set("coarse.model_cache_hit_share", share(b.CoarseModels.Hits-a.CoarseModels.Hits, b.CoarseModels.Misses-a.CoarseModels.Misses), 0)
	mc0, mc1 := a.Maintenance.Coarse, b.Maintenance.Coarse
	m.set("coarse.trains_per_locate", safeDiv(float64(mc1.Trains-mc0.Trains), L), int(L))
	m.set("coarse.train_ms_per_train", safeDiv(float64(mc1.TrainNanos)/1e6, float64(mc1.Trains)), int(mc1.Trains))
	m.set("coarse.observe_ingest_us_per_batch", us(write[spCoarseObserve].durNs, batches), int(batches))

	// fine
	m.set("fine.self_us_per_locate", us(ops[spFineLocate].self, L), ops[spFineLocate].count)
	m.set("fine.neighbors_total_per_locate", safeDiv(float64(sys.neighTotal), L), int(L))
	m.set("fine.neighbors_processed_share", safeDiv(float64(sys.neighProc), float64(sys.neighTotal)), int(sys.neighTotal))
	m.set("fine.store_affinity_us_per_locate", us(ops[spStoreAffinity].durNs, L), ops[spStoreAffinity].count)
	m.set("fine.store_affinity_pairs_per_locate", safeDiv(float64(rig.counts.fallbackPairs.Load()-rig.pairsBefore), L), int(L))

	// affgraph
	m.set("affgraph.batch_affinity_self_us_per_locate", us(ops[spBatchAffinity].self, L), ops[spBatchAffinity].count)
	m.set("affgraph.affinity_cache_hit_share", share(b.Affinity.Hits-a.Affinity.Hits, b.Affinity.Misses-a.Affinity.Misses), 0)
	m.set("affgraph.order_us_per_locate", us(ops[spOrder].durNs, L), ops[spOrder].count)
	m.set("affgraph.merge_us_per_locate", us(ops[spMerge].durNs, L), ops[spMerge].count)
	m.set("affgraph.graph_edges", float64(b.GraphEdges), 0)
	ma0, ma1 := a.Maintenance.Affinity, b.Maintenance.Affinity
	m.set("affgraph.scoped_kept_share", share(ma1.ScopedKept-ma0.ScopedKept, ma1.ScopedStale-ma0.ScopedStale), 0)
	m.set("affgraph.observe_ingest_us_per_batch", us(write[spAffObserve].durNs, batches), int(batches))

	// store
	sg0, sg1 := a.Segments, b.Segments
	m.set("store.neighbors_us_per_locate", us(ops[spNeighbors].durNs, L), ops[spNeighbors].count)
	m.set("store.neighbors_returned_per_call", safeDiv(float64(rig.counts.neighborsReturned.Load()-rig.neighBefore), float64(ops[spNeighbors].count)), ops[spNeighbors].count)
	m.set("store.ingest_self_us_per_batch", us(write[spStoreIngest].self, batches), int(batches))
	m.set("store.block_cache_hit_share", share(sg1.CacheHits-sg0.CacheHits, sg1.PageIns-sg0.PageIns), 0)
	m.set("store.page_ins_per_locate", safeDiv(float64(sg1.PageIns-sg0.PageIns), L), int(L))
	m.set("store.decoded_bytes_per_locate", safeDiv(float64(sg1.DecodedBytes-sg0.DecodedBytes), L), int(L))
	m.set("store.block_skips_per_locate", safeDiv(float64(sg1.BlockSkips-sg0.BlockSkips), L), int(L))
	m.set("store.index_loads", float64(sg1.IndexLoads-sg0.IndexLoads), 0)
	m.set("store.segment_view_us_per_locate", us(ops[spSegView].durNs, L), ops[spSegView].count)
	imp := sys.imp.stats.Segments
	m.set("store.segment_put_bytes_per_event", safeDiv(float64(rig.counts.putBytes.Load()), events), int(events))
	m.set("store.seals_per_kevent", safeDiv(float64(imp.Seals)*1000, events), int(events))
	m.set("store.encoded_bytes_per_event", safeDiv(float64(imp.EncodedBytes), events), int(events))
	m.set("store.cached_bytes", float64(sg1.CachedBytes), 0)
	m.set("store.mapped_bytes", float64(sg1.Backend.MappedBytes), 0)
	m.set("store.checkpoint_ms", safeDiv(float64(rig.life.byName[spCheckpoint].durNs)/1e6, float64(rig.life.byName[spCheckpoint].count)), rig.life.byName[spCheckpoint].count)
	m.set("store.reclaimed_bytes", float64(imp.Backend.ReclaimedBytes+sg1.Backend.ReclaimedBytes), 0)

	// wal
	m.set("wal.append_us_per_batch", us(write[spWalAppend].durNs, batches), int(batches))
	m.set("wal.commit_us_per_batch", us(write[spWalCommit].durNs, batches), int(batches))
	m.set("wal.log_bytes_per_event", safeDiv(float64(sys.imp.logBytes), events), int(events))
	m.set("wal.snapshot_bytes", float64(sys.imp.snapBytes), 0)
	m.set("wal.replayed_events", float64(rig.counts.replayed.Load()), 0)
	encNs, decNs, probed := codecProbe(rig.counts.samples)
	m.set("wal.encode_ns_per_event", safeDiv(float64(encNs), float64(probed)), probed)
	m.set("wal.decode_ns_per_event", safeDiv(float64(decNs), float64(probed)), probed)

	// cleanse: spans exist only where the deployment cleanses (live-mixed).
	m.set("cleanse.clean_us_per_batch", us(ops[spClean].durNs, float64(ops[spClean].count)), ops[spClean].count)
	cl0, cl1 := a.Cleanse, b.Cleanse
	m.set("cleanse.dropped_share", safeDiv(float64((cl1.Ingested-cl0.Ingested)-(cl1.Kept-cl0.Kept)), float64(cl1.Ingested-cl0.Ingested)), int(cl1.Ingested-cl0.Ingested))

	m.set("trace.overhead_ratio", overhead, sys.requests)

	res.aux["engine_total_ms.system"] = value{Value: float64(sys.engineNs) / 1e6, Unit: "ms"}
	res.aux["engine_total_ms.rig"] = value{Value: float64(rig.engineNs) / 1e6, Unit: "ms"}
	res.aux["locates_in_oplist"] = value{Value: L, Unit: "count"}
	res.aux["spans.rig"] = value{Value: float64(rig.life.spans), Unit: "count"}
}

// codecProbe times wal.DecodeSegment and wal.EncodeSegment directly over the
// workload's own sealed payloads, the two calls store.Ingest and the block
// cache make where no seam lets a span in.
func codecProbe(samples []sealedPayload) (encodeNs, decodeNs int64, events int) {
	var evs []event.Event
	var buf []byte
	for _, s := range samples {
		t0 := time.Now()
		var err error
		evs, err = wal.DecodeSegment(s.payload, s.dev, evs[:0])
		decodeNs += int64(time.Since(t0))
		if err != nil {
			continue
		}
		t0 = time.Now()
		buf, _ = wal.EncodeSegment(buf[:0], evs, store.DefaultSegmentBlockEvents)
		encodeNs += int64(time.Since(t0))
		events += len(evs)
	}
	return encodeNs, decodeNs, events
}

// printSelfTimes prints each pass's self-time table over its op list: per
// span name the calls, the total time, and the self time with its share of
// the root spans.
func printSelfTimes(passes []*passResult) {
	for _, pr := range passes {
		fmt.Printf("# self times, %s pass, op list: %d spans, root total %.3f ms\n", pr.name, pr.ops.spans, float64(pr.ops.rootNs)/1e6)
		fmt.Printf("# %-26s %10s %14s %14s %7s\n", "span", "calls", "total_ms", "self_ms", "self%")
		for n, t := range pr.ops.byName {
			if t.count == 0 {
				continue
			}
			fmt.Printf("# %-26s %10d %14.3f %14.3f %6.1f%%\n", spanNames[n], t.count, float64(t.durNs)/1e6, float64(t.self)/1e6, 100*safeDiv(float64(t.self), float64(pr.ops.rootNs)))
		}
	}
}
