package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locater"
	"locater/internal/affgraph"
	"locater/internal/cache"
	"locater/internal/cleanse"
	"locater/internal/coarse"
	"locater/internal/event"
	"locater/internal/fine"
	"locater/internal/space"
	"locater/internal/store"
	"locater/internal/wal"
)

// rig is the traced twin of locater.System: the same internal packages wired
// as locater.New/Open/Ingest/locate wire them, with a timing decorator on
// every seam a layer already accepts and a span around every call the wiring
// itself makes into a layer. It adds no instrumentation to the program — and
// must therefore be kept in step with locater.go by hand; the traced run
// fails when its answers differ from System's by a byte. In-program spans
// (ROADMAP item 3) will replace it.
//
// Where a layer offers no seam the time stays in the caller's self time:
// coarse's own point lookups into the store, the seal encode inside
// store.Ingest, and the snapshot write inside Checkpoint.
type rig struct {
	rec *recorder

	building *space.Building
	store    *store.Store
	coarse   *coarse.Localizer
	fine     *fine.Localizer
	graph    *affgraph.Graph
	cached   *affgraph.CachedAffinity
	labels   *fine.LabelStore
	cleanser *cleanse.Cleanser
	results  *cache.Cache[resultKey, locater.Result]

	wal       *wal.WAL
	persistMu sync.RWMutex

	queries atomic.Int64
}

// rigCounts are the counts the rig's decorators make. One traced pass opens
// the rig several times (import, crash re-opens); all of them count here.
type rigCounts struct {
	putBytes          atomic.Int64 // payload bytes handed to SegmentBackend.Put
	neighborsReturned atomic.Int64 // devices returned by neighbor discovery
	fallbackPairs     atomic.Int64 // pairs the store-backed affinity sweep computed
	// replayed is how many events the latest recovery replayed one by one
	// (mutable heads plus the log tail).
	replayed atomic.Int64

	mu      sync.Mutex
	samples []sealedPayload // the first sealed payloads, for the codec probes
}

// sealedPayload is one sealed segment as the store handed it to the backend.
type sealedPayload struct {
	dev     event.DeviceID
	payload []byte
}

// probeSamples bounds how many sealed payloads the codec probes run over.
const probeSamples = 64

// resultKey and hashResultKey repeat locater's result-cache key: a device and
// the query time quantized to one minute.
type resultKey struct {
	device event.DeviceID
	bucket int64
}

func hashResultKey(k resultKey) uint64 {
	const prime64 = 1099511628211
	h := cache.StringHash(k.device)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(k.bucket >> (8 * i)))
		h *= prime64
	}
	return h
}

const (
	rigResultCacheSize = 16384
	rigResultBucket    = time.Minute
	rigHistoryWindow   = 8 * 7 * 24 * time.Hour
)

// openRig assembles the rig on dir as locater.Open assembles a System, for
// the one configuration the benchmark deploys (engineConfig): every Config
// field it leaves zero selects the same default here.
func openRig(dir string, cfg locater.Config, rec *recorder, counts *rigCounts) (*rig, error) {
	sp := rec.begin(spOpen)
	defer rec.end(sp)

	r := &rig{rec: rec, building: cfg.Building}
	st := store.New(0)
	backend, err := store.NewMmapSegmentBackend(filepath.Join(dir, "segments"))
	if err != nil {
		return nil, fmt.Errorf("rig: opening cold tier: %w", err)
	}
	if err := st.ConfigureSegments(store.SegmentConfig{Backend: &tracedSegments{rec: rec, counts: counts, inner: backend}}); err != nil {
		return nil, err
	}
	r.store = st
	r.coarse = coarse.New(cfg.Building, st, coarse.Options{
		Thresholds:            coarse.DefaultThresholds(),
		MaxPromotionsPerRound: cfg.PromotionsPerRound,
	})
	if cfg.EnableCleansing {
		r.cleanser = cleanse.New(cfg.Building, cleanse.Config{})
		r.cleanser.SetSeed(func(d event.DeviceID) (event.Event, bool) {
			return st.LastEventAtOrBefore(d, time.Unix(0, math.MaxInt64))
		})
	}

	r.graph = affgraph.New(affgraph.Options{})
	fallback := &tracedFallback{rec: rec, counts: counts, inner: fine.NewStoreAffinity(st, rigHistoryWindow)}
	r.cached = affgraph.NewCachedAffinity(r.graph, fallback, time.Hour, 0)
	r.results = cache.New[resultKey, locater.Result](rigResultCacheSize, hashResultKey)
	r.fine = fine.New(cfg.Building, st,
		&tracedAffinity{rec: rec, inner: r.cached},
		&tracedOrderer{rec: rec, inner: r.graph},
		fine.Options{Variant: cfg.Variant, UseStopConditions: true})
	r.fine.SetNeighborSource(&tracedNeighbors{rec: rec, counts: counts, inner: st})
	r.labels = fine.NewLabelStore(0)
	r.fine.SetLabelStore(r.labels)
	r.fine.SetCoarseResolver(func(d event.DeviceID, tq time.Time) (space.RegionID, bool) {
		sp := rec.begin(spCoarseResolve)
		res, err := r.coarse.Locate(d, tq)
		rec.end(sp)
		if err != nil || res.Outside {
			return "", false
		}
		return res.Region, true
	})

	// Recovery, in locater.Open's order: segment manifest, deltas, then the
	// heads and log tail through Ingest, all before the log is attached so
	// replayed mutations are not logged again.
	w, recd, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		return nil, fmt.Errorf("rig: opening event store: %w", err)
	}
	if err := st.RestoreSegments(recd.Segments); err != nil {
		w.Close()
		return nil, fmt.Errorf("rig: restoring segments: %w", err)
	}
	for d, delta := range recd.Deltas {
		if err := st.SetDelta(d, delta); err != nil {
			w.Close()
			return nil, fmt.Errorf("rig: restoring deltas: %w", err)
		}
	}
	if len(recd.Events) > 0 {
		if _, err := st.Ingest(recd.Events); err != nil {
			w.Close()
			return nil, fmt.Errorf("rig: replaying events: %w", err)
		}
	}
	counts.replayed.Store(int64(len(recd.Events)))
	st.AdvanceNextID(recd.NextID)
	r.labels.Restore(recd.Labels)
	st.AttachBackend(&tracedLog{rec: rec, inner: w})
	r.wal = w
	return r, nil
}

// rigOpener adapts openRig to the opener the import cycle takes.
func rigOpener(cfg locater.Config, rec *recorder, counts *rigCounts) opener {
	return func(dir string) (locater.Locater, error) { return openRig(dir, cfg, rec, counts) }
}

// --- write path -----------------------------------------------------------------

func (r *rig) Ingest(events []locater.Event) error {
	sp := r.rec.begin(spIngest)
	defer r.rec.end(sp)
	if r.cleanser != nil {
		c := r.rec.begin(spClean)
		events = r.cleanser.Clean(events)
		r.rec.end(c)
		if len(events) == 0 {
			return nil
		}
	}
	r.persistMu.RLock()
	s := r.rec.begin(spStoreIngest)
	_, err := r.store.Ingest(events)
	r.rec.end(s)
	r.persistMu.RUnlock()
	if err != nil {
		// System's conservative path after a failed write; the benchmark's
		// workloads never fail one, so it is mirrored without spans.
		seen := make(map[event.DeviceID]struct{}, 8)
		for _, e := range events {
			if _, ok := seen[e.Device]; !ok {
				seen[e.Device] = struct{}{}
				r.coarse.InvalidateDevice(e.Device)
			}
		}
		r.cached.Invalidate()
		r.results.Invalidate()
		return err
	}
	o := r.rec.begin(spCoarseObserve)
	r.coarse.ObserveIngest(events)
	r.rec.end(o)
	a := r.rec.begin(spAffObserve)
	r.cached.ObserveIngest(events)
	r.rec.end(a)
	r.results.Invalidate()
	return nil
}

func (r *rig) EstimateDeltas(quantile float64, min, max time.Duration) error {
	r.persistMu.RLock()
	err := r.store.EstimateDeltas(quantile, min, max)
	r.persistMu.RUnlock()
	r.coarse.InvalidateAll()
	r.cached.Invalidate()
	r.results.Invalidate()
	return err
}

func (r *rig) Checkpoint() error {
	sp := r.rec.begin(spCheckpoint)
	defer r.rec.end(sp)
	r.persistMu.Lock()
	r.store.CompactRuntSegments()
	st := r.store.CheckpointState()
	labels := r.labels.Snapshot()
	lsn := r.wal.LastLSN()
	r.persistMu.Unlock()

	if err := r.store.SyncSegments(); err != nil {
		return fmt.Errorf("rig: syncing segments: %w", err)
	}
	if err := r.wal.WriteSnapshotV2(lsn, &wal.SnapshotData{
		NextID:   st.NextID,
		Deltas:   st.Deltas,
		Events:   st.Heads,
		Segments: st.Segments,
		Labels:   labels,
	}); err != nil {
		return err
	}
	retained, err := r.wal.RetainedSegmentManifests()
	if err != nil {
		return fmt.Errorf("rig: listing retained snapshots: %w", err)
	}
	if _, err := r.store.ReclaimSegments(retained); err != nil {
		return fmt.Errorf("rig: reclaiming cold tier: %w", err)
	}
	return nil
}

func (r *rig) Close() error {
	if r.wal == nil {
		return nil
	}
	err := r.Checkpoint()
	if cerr := r.wal.Close(); err == nil {
		err = cerr
	}
	if cerr := r.store.CloseSegments(); err == nil {
		err = cerr
	}
	r.store.AttachBackend(nil)
	r.wal = nil
	return err
}

// --- query path -----------------------------------------------------------------

func (r *rig) Locate(d locater.DeviceID, t time.Time) (locater.Result, error) {
	return r.LocateContext(context.Background(), d, t)
}

func ctxErr(ctx context.Context) error {
	switch err := ctx.Err(); err {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return locater.ErrDeadlineExceeded
	default:
		return err
	}
}

func (r *rig) LocateContext(ctx context.Context, d locater.DeviceID, t time.Time) (locater.Result, error) {
	sp := r.rec.begin(spLocate)
	defer r.rec.end(sp)
	r.queries.Add(1)
	if err := ctxErr(ctx); err != nil {
		return locater.Result{}, err
	}
	key := resultKey{device: d, bucket: t.UnixNano() / int64(rigResultBucket)}
	if res, ok := r.results.Get(key); ok {
		return res, nil
	}
	epoch := r.results.Epoch()
	res, err := r.locate(ctx, d, t)
	if err == nil {
		r.results.PutAt(key, res, epoch)
	}
	return res, err
}

func (r *rig) locate(ctx context.Context, d locater.DeviceID, t time.Time) (locater.Result, error) {
	c := r.rec.begin(spCoarseLocate)
	cres, err := r.coarse.Locate(d, t)
	r.rec.end(c)
	if err != nil {
		return locater.Result{}, err
	}
	if cres.Outside {
		return locater.Result{Outside: true, CoarseConfidence: cres.Confidence, Repaired: cres.Gap != nil}, nil
	}
	if err := ctxErr(ctx); err != nil {
		return locater.Result{}, err
	}
	f := r.rec.begin(spFineLocate)
	fres, err := r.fine.Locate(d, cres.Region, t)
	r.rec.end(f)
	if err != nil {
		return locater.Result{}, err
	}
	if len(fres.LocalGraph) > 0 {
		edges := make([]affgraph.Edge, len(fres.LocalGraph))
		for i, e := range fres.LocalGraph {
			edges[i] = affgraph.Edge{From: e.From, To: e.To, Weight: e.Weight}
		}
		m := r.rec.begin(spMerge)
		r.graph.Merge(edges, t)
		r.rec.end(m)
	}
	return locater.Result{
		Region:             cres.Region,
		Room:               fres.Room,
		RoomProbability:    fres.Probability,
		CoarseConfidence:   cres.Confidence,
		Repaired:           !cres.FromValidity,
		ProcessedNeighbors: fres.ProcessedNeighbors,
		TotalNeighbors:     fres.TotalNeighbors,
	}, nil
}

func (r *rig) LocateBatch(queries []locater.Query, workers int) []locater.BatchResult {
	return r.LocateBatchContext(context.Background(), queries, workers)
}

func (r *rig) LocateBatchContext(ctx context.Context, queries []locater.Query, workers int) []locater.BatchResult {
	sp := r.rec.begin(spBatch)
	defer r.rec.end(sp)
	out := make([]locater.BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				if err := ctxErr(ctx); err != nil {
					out[i] = locater.BatchResult{Query: q, Err: err}
					continue
				}
				res, err := r.LocateContext(ctx, q.Device, q.Time)
				out[i] = locater.BatchResult{Query: q, Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// --- the rest of locater.Locater ------------------------------------------------

func (r *rig) Building() *locater.Building { return r.building }
func (r *rig) NumEvents() int              { return r.store.NumEvents() }
func (r *rig) NumDevices() int             { return r.store.NumDevices() }
func (r *rig) NumQueries() int             { return int(r.queries.Load()) }

// CacheStats reports the tiers the rig can read off its parts; the traced
// run takes every count metric from the real System's CacheStats instead.
func (r *rig) CacheStats() locater.CacheStats {
	return locater.CacheStats{
		Enabled:    true,
		GraphEdges: r.graph.NumEdges(),
		Segments:   r.store.SegmentStats(),
	}
}

func (r *rig) QueryStats() locater.QueryStats { return locater.QueryStats{} }

func (r *rig) PersistStats() (segments int, lastLSN, durableLSN uint64, ok bool) {
	if r.wal == nil {
		return 0, 0, 0, false
	}
	segments, lastLSN, durableLSN = r.wal.Stats()
	return segments, lastLSN, durableLSN, true
}

var _ locater.Locater = (*rig)(nil)

// --- seam decorators ------------------------------------------------------------

// tracedLog times the write-ahead log behind store.Backend.
type tracedLog struct {
	rec   *recorder
	inner store.Backend
}

func (t *tracedLog) AppendEvents(evs []event.Event) error {
	sp := t.rec.begin(spWalAppend)
	defer t.rec.end(sp)
	return t.inner.AppendEvents(evs)
}

func (t *tracedLog) AppendDelta(d event.DeviceID, delta time.Duration) error {
	sp := t.rec.begin(spWalAppend)
	defer t.rec.end(sp)
	return t.inner.AppendDelta(d, delta)
}

func (t *tracedLog) Commit() error {
	sp := t.rec.begin(spWalCommit)
	defer t.rec.end(sp)
	return t.inner.Commit()
}

// tracedSegments times the cold tier behind store.SegmentBackend and
// ViewBackend, counts the bytes put into it, and keeps the first sealed
// payloads for the codec probes. Reclaim and BackendStats pass through, so
// the store sees the same optional interfaces as on the bare backend.
type tracedSegments struct {
	rec    *recorder
	counts *rigCounts
	inner  store.SegmentBackend
}

func (t *tracedSegments) Put(d event.DeviceID, seq uint64, payload []byte) error {
	sp := t.rec.begin(spSegPut)
	err := t.inner.Put(d, seq, payload)
	t.rec.end(sp)
	t.counts.putBytes.Add(int64(len(payload)))
	t.counts.mu.Lock()
	if len(t.counts.samples) < probeSamples {
		t.counts.samples = append(t.counts.samples, sealedPayload{dev: d, payload: append([]byte(nil), payload...)})
	}
	t.counts.mu.Unlock()
	return err
}

func (t *tracedSegments) Get(d event.DeviceID, seq uint64) ([]byte, error) {
	return t.inner.Get(d, seq)
}

func (t *tracedSegments) View(d event.DeviceID, seq uint64, fn func(payload []byte) error) error {
	sp := t.rec.begin(spSegView)
	defer t.rec.end(sp)
	return t.inner.(store.ViewBackend).View(d, seq, fn)
}

func (t *tracedSegments) Sync() error      { return t.inner.Sync() }
func (t *tracedSegments) Persistent() bool { return t.inner.Persistent() }
func (t *tracedSegments) Close() error     { return t.inner.Close() }

func (t *tracedSegments) Reclaim(live map[event.DeviceID]store.LiveSegments) (int64, error) {
	return t.inner.(store.ReclaimableBackend).Reclaim(live)
}

func (t *tracedSegments) BackendStats() store.BackendStats {
	return t.inner.(store.StatsBackend).BackendStats()
}

var (
	_ store.ViewBackend        = (*tracedSegments)(nil)
	_ store.ReclaimableBackend = (*tracedSegments)(nil)
	_ store.StatsBackend       = (*tracedSegments)(nil)
)

// tracedNeighbors times neighbor discovery (the store's occupancy index)
// behind fine.NeighborSource.
type tracedNeighbors struct {
	rec    *recorder
	counts *rigCounts
	inner  fine.NeighborSource
}

func (t *tracedNeighbors) ActiveDevicesAt(aps []space.APID, start, end time.Time) []event.DeviceID {
	sp := t.rec.begin(spNeighbors)
	out := t.inner.ActiveDevicesAt(aps, start, end)
	t.rec.end(sp)
	t.counts.neighborsReturned.Add(int64(len(out)))
	return out
}

// tracedOrderer times the affinity graph's neighbor ordering.
type tracedOrderer struct {
	rec   *recorder
	inner fine.NeighborOrderer
}

func (t *tracedOrderer) OrderNeighbors(d event.DeviceID, neighbors []event.DeviceID, tq time.Time) []event.DeviceID {
	sp := t.rec.begin(spOrder)
	defer t.rec.end(sp)
	return t.inner.OrderNeighbors(d, neighbors, tq)
}

// tracedAffinity times the caching engine's affinity lookups; its children
// are the fallback sweeps it starts on a miss.
type tracedAffinity struct {
	rec   *recorder
	inner *affgraph.CachedAffinity
}

func (t *tracedAffinity) PairAffinity(a, b event.DeviceID, ref time.Time) float64 {
	sp := t.rec.begin(spBatchAffinity)
	defer t.rec.end(sp)
	return t.inner.PairAffinity(a, b, ref)
}

func (t *tracedAffinity) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64 {
	sp := t.rec.begin(spBatchAffinity)
	defer t.rec.end(sp)
	return t.inner.BatchPairAffinity(d, cands, ref, out)
}

// tracedFallback times the store-backed affinity sweep the caching engine
// falls back to, and counts the pairs it computed.
type tracedFallback struct {
	rec    *recorder
	counts *rigCounts
	inner  fine.PairAffinityProvider
}

func (t *tracedFallback) PairAffinity(a, b event.DeviceID, ref time.Time) float64 {
	sp := t.rec.begin(spStoreAffinity)
	defer t.rec.end(sp)
	t.counts.fallbackPairs.Add(1)
	return t.inner.PairAffinity(a, b, ref)
}

func (t *tracedFallback) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64 {
	sp := t.rec.begin(spStoreAffinity)
	defer t.rec.end(sp)
	t.counts.fallbackPairs.Add(int64(len(cands)))
	return t.inner.(fine.BatchPairAffinityProvider).BatchPairAffinity(d, cands, ref, out)
}
