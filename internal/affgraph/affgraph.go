// Package affgraph implements LOCATER's caching engine (paper Section 5):
// the global affinity graph that accumulates, across queries, the local
// affinity graphs produced by the fine-grained localization algorithm, and
// uses them to (a) order neighbor devices by decreasing affinity so
// Algorithm 2 converges after processing fewer devices, and (b) cache
// pairwise device affinities so they are not recomputed from raw history on
// every query.
//
// Nodes are devices; an edge between two devices carries a vector of
// (weight, timestamp) pairs — one entry per local affinity graph that
// contained the edge. At query time the vector is collapsed into a single
// weight with a normalized Gaussian kernel centred at the query time, so
// affinities observed near t_q dominate.
//
// Graph times are wall-clock instants kept as Unix nanoseconds: they must
// fit in int64 nanoseconds (years 1678–2262), and a query time and an
// observation must lie within 292 years of each other, so their difference
// fits in a time.Duration.
package affgraph

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/cache"
	"locater/internal/event"
)

// observation is one timestamped edge weight, taken from a local affinity
// graph: the query instant as Unix nanoseconds, so an edge vector is 16
// bytes per entry and holds no pointer for the GC to scan.
type observation struct {
	nanos  int64
	weight float64
}

// Graph is the global affinity graph. It is safe for concurrent use.
//
// Lock order: mu, then at most one memo row's mutex. Readers try for a row
// while holding mu shared and never wait for one; Merge takes mu alone.
type Graph struct {
	mu sync.RWMutex

	// ords interns each device seen by Merge as a dense ordinal, so an edge
	// is one uint64 key and a lookup hashes each device once.
	ords map[event.DeviceID]uint32
	// edges[edgeKey(a, b)] is the undirected edge {a, b}.
	edges map[uint64]edge

	// sigma of the Gaussian kernel used to collapse edge vectors.
	sigma time.Duration
	// horizon is underflowHorizon(sigma): an observation further than this
	// from t_q adds exactly +0 to the collapse, which therefore skips it.
	horizon time.Duration
	// maxObservations bounds the per-edge vector; oldest entries are
	// dropped first. Negative = unbounded (New turns 0 into 64).
	maxObservations int

	memo [memoRows]memoRow
}

type pairKey struct {
	a, b   event.DeviceID
	bucket int64
}

// edge is one edge's observation vector and its merge version: the number
// of observations Merge ever appended to it. The version names the vector's
// contents (trimming drops the oldest as a function of it), so a collapse
// stamped with it is exact for as long as the version is current.
type edge struct {
	obs     []observation
	version uint64
}

// The collapse memo. One fine locate collapses many edges at one t_q, and
// OrderNeighbors re-asks the edges the neighbor sweep's WeightsBatch just
// collapsed. A query time picks one of memoRows rows by hash. A call takes
// its row only if no other call holds it and otherwise collapses without
// the memo, so readers never wait for each other. A row is a direct-mapped
// table of edge collapses, each stamped with the t_q it was collapsed at and
// the edge's merge version: moving a row to a new query time costs nothing,
// and a Merge makes the edge's slot miss.
const (
	memoRowBits = 3
	memoRows    = 1 << memoRowBits
	weightBits  = 8
	weightSlots = 1 << weightBits
)

type memoRow struct {
	mu      sync.Mutex
	weights [weightSlots]weightSlot
}

// weightSlot is one memoized collapse. An empty slot has version 0, which
// no edge has, so it never hits.
type weightSlot struct {
	tq      int64
	key     uint64
	version uint64
	weight  float64
}

// fibHash spreads x over bits bits (Fibonacci hashing), so query times that
// are whole minutes, and edge keys of neighboring ordinals, still land on
// distinct rows and slots.
func fibHash(x uint64, bits uint) uint64 {
	return (x * 0x9E3779B97F4A7C15) >> (64 - bits)
}

func edgeKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Options configures the graph.
type Options struct {
	// Sigma is the standard deviation of the Gaussian time kernel.
	// Default 1 hour (the paper uses a normalized normal with µ = t_q).
	Sigma time.Duration
	// MaxObservationsPerEdge caps each edge's vector: 0 selects the default
	// 64, a negative value leaves the vector unbounded.
	MaxObservationsPerEdge int
}

// New creates an empty global affinity graph.
func New(opts Options) *Graph {
	if opts.Sigma <= 0 {
		opts.Sigma = time.Hour
	}
	if opts.MaxObservationsPerEdge == 0 {
		opts.MaxObservationsPerEdge = 64
	}
	return &Graph{
		ords:            make(map[event.DeviceID]uint32),
		edges:           make(map[uint64]edge),
		sigma:           opts.Sigma,
		horizon:         underflowHorizon(opts.Sigma),
		maxObservations: opts.MaxObservationsPerEdge,
	}
}

// expUnderflow is an exponent below math.Exp's underflow threshold
// (≈ −745.13, where e^x falls under half the smallest subnormal): math.Exp
// returns +0 for it and every smaller argument. The gap between the two
// absorbs the few ulps of rounding in computing dt.
const expUnderflow = -746

// underflowHorizon returns the largest |t_q − t| whose kernel term
// exp(−½(Δ/σ)²) may be nonzero: every Δ beyond it has −½(Δ/σ)² < −746, so
// math.Exp returns +0. It saturates at math.MaxInt64 when σ is so large
// (over about 7.6 years) that no time.Duration reaches the threshold.
func underflowHorizon(sigma time.Duration) time.Duration {
	h := math.Sqrt(-2*expUnderflow) * float64(sigma)
	if h >= math.MaxInt64 {
		return math.MaxInt64
	}
	return time.Duration(h)
}

func orderPair(a, b event.DeviceID) (event.DeviceID, event.DeviceID) {
	if a <= b {
		return a, b
	}
	return b, a
}

// Merge folds a local affinity graph into the global one: V̂g = Vg ∪ Vl,
// Êg = Eg ∪ El, appending (weight, t_q) to each touched edge's vector.
func (g *Graph) Merge(edges []Edge, tq time.Time) {
	tqN := tq.UnixNano()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		k := edgeKey(g.intern(e.From), g.intern(e.To))
		ed := g.edges[k]
		ed.obs = append(ed.obs, observation{nanos: tqN, weight: e.Weight})
		if g.maxObservations > 0 && len(ed.obs) > g.maxObservations {
			ed.obs = ed.obs[len(ed.obs)-g.maxObservations:]
		}
		ed.version++
		g.edges[k] = ed
	}
}

// intern returns d's ordinal, assigning the next one on first sight.
// Callers hold mu exclusively.
func (g *Graph) intern(d event.DeviceID) uint32 {
	o, ok := g.ords[d]
	if !ok {
		o = uint32(len(g.ords))
		g.ords[d] = o
	}
	return o
}

// Edge mirrors fine.LocalEdge without importing the package (avoiding an
// import cycle): a pairwise affinity observation from one query.
type Edge struct {
	From, To event.DeviceID
	Weight   float64
}

// memoFor returns t_q's (Unix nanos) memo row locked, or nil when another
// call holds it. Callers hold mu shared and unlock the row before releasing
// mu.
func (g *Graph) memoFor(tqN int64) *memoRow {
	r := &g.memo[fibHash(uint64(tqN), memoRowBits)]
	if !r.mu.TryLock() {
		return nil
	}
	return r
}

// weightLocked returns the collapsed weight of the edge {d, n} at t_q (Unix
// nanos), 0 when n has no edge to d. d is the ordinal of the queried device.
// Callers hold mu shared and, unless r is nil, t_q's row.
func (g *Graph) weightLocked(r *memoRow, d uint32, n event.DeviceID, tqN int64) float64 {
	on, ok := g.ords[n]
	if !ok {
		return 0
	}
	k := edgeKey(d, on)
	e, ok := g.edges[k]
	if !ok {
		return 0
	}
	if r == nil {
		return g.collapse(e.obs, tqN)
	}
	s := &r.weights[fibHash(k, weightBits)]
	if s.tq == tqN && s.key == k && s.version == e.version {
		return s.weight
	}
	w := g.collapse(e.obs, tqN)
	*s = weightSlot{tq: tqN, key: k, version: e.version, weight: w}
	return w
}

// collapse reduces one edge vector to its Gaussian-kernel weighted average
// at t_q (Unix nanos): µ = t_q, σ = Options.Sigma, normalized over the
// observations (paper Section 5). Terms further than the underflow horizon
// from t_q are skipped: math.Exp would return +0 for them, and adding +0
// (times a finite weight) leaves num and den as they were, so the kept
// terms sum in the same order to the same bits, and the plain-average
// fallback triggers exactly when it would with every term.
func (g *Graph) collapse(obs []observation, tqN int64) float64 {
	sigma := g.sigma.Seconds()
	h := g.horizon
	num, den := 0.0, 0.0
	for _, o := range obs {
		d := time.Duration(tqN - o.nanos)
		if d > h || d < -h {
			continue
		}
		dt := d.Seconds() / sigma
		l := math.Exp(-0.5 * dt * dt)
		num += l * o.weight
		den += l
	}
	if den <= 1e-300 {
		// All observations are far from tq: fall back to plain average so
		// stale knowledge still orders neighbors.
		sum := 0.0
		for _, o := range obs {
			sum += o.weight
		}
		return sum / float64(len(obs))
	}
	return num / den
}

// WeightsBatch collapses the edge vectors (d, cands[i]) at tq into
// out[:len(cands)] under a single shared lock — the batched form the fine
// stage's affinity sweep uses so a query with N neighbors takes the graph
// lock once, not N times. Missing edges weigh 0. out is caller-owned scratch
// and is grown as needed.
func (g *Graph) WeightsBatch(d event.DeviceID, cands []event.DeviceID, tq time.Time, out []float64) []float64 {
	if cap(out) < len(cands) {
		out = make([]float64, len(cands))
	}
	out = out[:len(cands)]
	g.mu.RLock()
	defer g.mu.RUnlock()
	od, ok := g.ords[d]
	if !ok {
		clear(out)
		return out
	}
	tqN := tq.UnixNano()
	r := g.memoFor(tqN)
	for i, n := range cands {
		out[i] = g.weightLocked(r, od, n, tqN)
	}
	if r != nil {
		r.mu.Unlock()
	}
	return out
}

// scored is one OrderNeighbors candidate: its collapsed weight and its
// position in the input.
type scored struct {
	weight float64
	pos    int
}

// scoredPool recycles OrderNeighbors' scratch, so a call allocates only the
// slice it returns.
var scoredPool = sync.Pool{New: func() any { return new([]scored) }}

// OrderNeighbors sorts the neighbor candidates by decreasing collapsed edge
// weight w.r.t. the queried device, breaking ties by input position.
// Devices with no edge weigh 0, so they sort after devices with edges in
// their relative input order. This implements fine.NeighborOrderer.
func (g *Graph) OrderNeighbors(d event.DeviceID, neighbors []event.DeviceID, tq time.Time) []event.DeviceID {
	sp := scoredPool.Get().(*[]scored)
	ss := (*sp)[:0]
	g.mu.RLock()
	if od, ok := g.ords[d]; ok {
		tqN := tq.UnixNano()
		r := g.memoFor(tqN)
		for i, n := range neighbors {
			ss = append(ss, scored{weight: g.weightLocked(r, od, n, tqN), pos: i})
		}
		if r != nil {
			r.mu.Unlock()
		}
	} else {
		for i := range neighbors {
			ss = append(ss, scored{pos: i})
		}
	}
	g.mu.RUnlock()
	slices.SortFunc(ss, func(a, b scored) int {
		switch {
		case a.weight > b.weight:
			return -1
		case a.weight < b.weight:
			return 1
		}
		return a.pos - b.pos
	})
	out := make([]event.DeviceID, len(ss))
	for i, s := range ss {
		out[i] = neighbors[s.pos]
	}
	*sp = ss
	scoredPool.Put(sp)
	return out
}

// NumEdges returns the number of distinct edges in the graph.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// CachedAffinity is a fine.PairAffinityProvider that first consults the
// global graph and falls back to the underlying provider on a miss, caching
// the fallback's answers in a bounded LRU keyed by (pair, time bucket).
//
// Staleness after writes is handled with SCOPED per-device validation
// instead of a whole-cache epoch bump. Every cached entry is stamped with
// the write sequence numbers of its two devices captured before its fallback
// sweep ran (affEntry); ObserveIngest records each device's writes together
// with the minimum event timestamp of the batch. A cached (pair, bucket)
// entry remains provably byte-identical to a fresh recompute as long as
// every write to either device since the entry was computed carries only
// events AFTER the bucket's end: the fallback affinity over (ref−window, ref]
// depends only on the two devices' events with time ≤ ref ≤ bucketEnd (see
// fine.BatchDeviceAffinity) plus δ, and δ changes route through
// InvalidateDevice/Invalidate. So steady-state ingest of recent events —
// the fleet write pattern — invalidates nothing, where the old epoch bump
// recomputed every pair after every write.
//
// The global Invalidate (O(1) epoch bump) remains for writes scoped
// validation cannot express, e.g. EstimateDeltas changing every δ at once.
//
// Concurrent misses for one key each run their own fallback sweep and store
// the same value: the fallback is a pure function of history, so concurrent
// sweeps need no coordination.
type CachedAffinity struct {
	Graph *Graph
	// Fallback computes affinities when the graph has no edge. Must be
	// non-nil.
	Fallback interface {
		PairAffinity(a, b event.DeviceID, ref time.Time) float64
	}
	// BucketSize quantizes reference times for the fallback cache.
	// Default 1 hour.
	BucketSize time.Duration

	// fallbackCache bounds the memoized fallback answers; its shards
	// synchronize lookups and inserts.
	fallbackCache *cache.Cache[pairKey, affEntry]

	// wmu guards writes, the per-device write log scoped validation reads.
	// It is never held across a fallback sweep.
	wmu    sync.RWMutex
	writes map[event.DeviceID]*devWrites

	graphHits     atomic.Int64
	fallbackNanos atomic.Int64
	scopedKept    atomic.Int64
	scopedStale   atomic.Int64
}

// affEntry is one cached fallback affinity, stamped with the write
// sequence numbers of the (ordered) pair's devices captured before its
// fallback sweep.
type affEntry struct {
	val  float64
	seqA uint64
	seqB uint64
}

// writeRingSize bounds the per-device write history scoped validation can
// prove against; entries older than the ring are conservatively stale.
const writeRingSize = 32

type writeRec struct {
	seq      uint64
	minNanos int64
}

// devWrites is one device's write log: a monotone sequence number plus a
// ring of the last writeRingSize (seq, min event time) records.
type devWrites struct {
	seq  uint64
	ring [writeRingSize]writeRec
}

// DefaultFallbackCacheSize bounds the fallback cache when NewCachedAffinity
// is given a non-positive capacity: 64Ki (pair, bucket) entries, 0.98 MB of
// index from construction and 6.55 MB at capacity (an 80 B slab node plus
// 16 B of index per entry; the device IDs the keys share are not counted).
const DefaultFallbackCacheSize = 64 * 1024

// NewCachedAffinity wires a graph in front of a fallback provider with a
// fallback cache of at most capacity entries (DefaultFallbackCacheSize when
// capacity ≤ 0).
func NewCachedAffinity(g *Graph, fallback interface {
	PairAffinity(a, b event.DeviceID, ref time.Time) float64
}, bucket time.Duration, capacity int) *CachedAffinity {
	if bucket <= 0 {
		bucket = time.Hour
	}
	if capacity <= 0 {
		capacity = DefaultFallbackCacheSize
	}
	return &CachedAffinity{
		Graph:         g,
		Fallback:      fallback,
		BucketSize:    bucket,
		fallbackCache: cache.New[pairKey, affEntry](capacity, hashPairKey),
		writes:        make(map[event.DeviceID]*devWrites),
	}
}

// hashPairKey mixes both device IDs and the time bucket (FNV-1a with a
// separator byte so ("ab","c") and ("a","bc") shard independently).
func hashPairKey(k pairKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.a); i++ {
		h ^= uint64(k.a[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(k.b); i++ {
		h ^= uint64(k.b[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(k.bucket >> (8 * i)))
		h *= prime64
	}
	return h
}

// PairAffinity implements fine.PairAffinityProvider: one pair answered
// through BatchPairAffinity, whose accounting and invalidation semantics it
// shares.
func (c *CachedAffinity) PairAffinity(a, b event.DeviceID, ref time.Time) float64 {
	var out [1]float64
	return c.BatchPairAffinity(a, []event.DeviceID{b}, ref, out[:0])[0]
}

// bucketOf returns the fallback-cache bucket of a reference time. It counts
// in nanoseconds, so a BucketSize under a second or with a fractional second
// keeps its exact width.
func (c *CachedAffinity) bucketOf(ref time.Time) int64 {
	return ref.UnixNano() / int64(c.BucketSize)
}

// bucketEndNanos returns the exclusive end of a cache bucket in Unix nanos.
func (c *CachedAffinity) bucketEndNanos(bucket int64) int64 {
	return (bucket + 1) * int64(c.BucketSize)
}

// entryScopedValid reports whether a cached entry is still provably
// byte-identical to a fresh recompute: every write to either device since
// the entry's sequence numbers must carry only events after the bucket's
// end. survived is true when the entry outlived at least one write — the
// lookups the old epoch bump would have recomputed.
func (c *CachedAffinity) entryScopedValid(e affEntry, key pairKey, bucketEnd int64) (valid, survived bool) {
	c.wmu.RLock()
	defer c.wmu.RUnlock()
	va, sa := devWritesValid(c.writes[key.a], e.seqA, bucketEnd)
	if !va {
		return false, false
	}
	vb, sb := devWritesValid(c.writes[key.b], e.seqB, bucketEnd)
	if !vb {
		return false, false
	}
	return true, sa || sb
}

// devWritesValid checks one device's write log: the cached sequence number
// must be within ring reach of the current one, and every write in between
// must carry only events after bucketEnd. survived reports that at least
// one such write was proven harmless.
func devWritesValid(dw *devWrites, seq uint64, bucketEnd int64) (valid, survived bool) {
	if dw == nil || dw.seq == seq {
		return true, false
	}
	if seq > dw.seq || dw.seq-seq > writeRingSize {
		return false, false
	}
	for s := seq + 1; s <= dw.seq; s++ {
		rec := dw.ring[s%writeRingSize]
		if rec.seq != s || rec.minNanos <= bucketEnd {
			return false, false
		}
	}
	return true, true
}

// ObserveIngest records a successfully-ingested batch in the per-device
// write log (one sequenced record per touched device, carrying the batch's
// minimum event time for that device). Call it AFTER the store applied the
// batch.
func (c *CachedAffinity) ObserveIngest(events []event.Event) {
	if len(events) == 0 {
		return
	}
	mins := make(map[event.DeviceID]int64, 8)
	for _, e := range events {
		ts := e.Time.UnixNano()
		if cur, ok := mins[e.Device]; !ok || ts < cur {
			mins[e.Device] = ts
		}
	}
	c.wmu.Lock()
	for d, mn := range mins {
		c.recordWriteLocked(d, mn)
	}
	c.wmu.Unlock()
}

// InvalidateDevice invalidates every cached affinity involving the device
// (a write record carrying MinInt64 fails every bucket check). Used for δ
// changes, which alter the device's affinities at every reference time.
func (c *CachedAffinity) InvalidateDevice(d event.DeviceID) {
	c.wmu.Lock()
	c.recordWriteLocked(d, math.MinInt64)
	c.wmu.Unlock()
}

func (c *CachedAffinity) recordWriteLocked(d event.DeviceID, minNanos int64) {
	dw := c.writes[d]
	if dw == nil {
		dw = &devWrites{}
		c.writes[d] = dw
	}
	dw.seq++
	dw.ring[dw.seq%writeRingSize] = writeRec{seq: dw.seq, minNanos: minNanos}
}

// BatchPairAffinity answers α({d, c}) for every candidate c in one pass —
// the fine stage's batched sweep entry point (fine.BatchPairAffinityProvider).
// The graph is consulted once for all pairs under a single shared lock;
// scoped-valid cached fallback answers fill in next; the remaining misses
// are computed in ONE batched fallback sweep (when the fallback implements
// the batch interface) instead of a per-pair copy each.
//
// The sweep's answers are cached at the cache epoch and the pair devices'
// write sequence numbers captured before it ran, so a sweep that overlaps
// Invalidate (the epoch moved: PutAt skips the insert), an in-bucket
// ObserveIngest or an InvalidateDevice (the stamps predate the write, so
// the next lookup finds the entry stale) returns its value to its caller
// but never serves it again.
//
// Accounting: a lookup served by the global graph counts as a hit (tracked
// separately and folded into Stats), a cached fallback answer counts as a
// hit, and everything that reaches the fallback counts as a miss.
func (c *CachedAffinity) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64 {
	out = c.Graph.WeightsBatch(d, cands, ref, out)
	bucket := c.bucketOf(ref)
	bucketEnd := c.bucketEndNanos(bucket)

	// Resolve graph hits and cached fallback answers; collect the misses.
	var missIdx []int
	var missKeys []pairKey
	for i, cand := range cands {
		if out[i] > 0 {
			c.graphHits.Add(1)
			continue
		}
		x, y := orderPair(d, cand)
		key := pairKey{a: x, b: y, bucket: bucket}
		if e, ok := c.fallbackCache.Get(key); ok {
			if valid, survived := c.entryScopedValid(e, key, bucketEnd); valid {
				if survived {
					c.scopedKept.Add(1)
				}
				out[i] = e.val
				continue
			}
			c.scopedStale.Add(1)
			c.fallbackCache.Delete(key)
		}
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, key)
	}
	if len(missIdx) == 0 {
		return out
	}

	// Stamp the misses before the sweep reads history.
	epoch := c.fallbackCache.Epoch()
	entries := make([]affEntry, len(missKeys))
	c.wmu.RLock()
	for k, key := range missKeys {
		if dw := c.writes[key.a]; dw != nil {
			entries[k].seqA = dw.seq
		}
		if dw := c.writes[key.b]; dw != nil {
			entries[k].seqB = dw.seq
		}
	}
	c.wmu.RUnlock()

	devs := make([]event.DeviceID, len(missIdx))
	for k, i := range missIdx {
		devs[k] = cands[i]
	}
	start := time.Now()
	var vals []float64
	if bf, ok := c.Fallback.(batchFallback); ok {
		vals = bf.BatchPairAffinity(d, devs, ref, make([]float64, 0, len(devs)))
	} else {
		vals = make([]float64, len(devs))
		for k, dev := range devs {
			vals[k] = c.Fallback.PairAffinity(d, dev, ref)
		}
	}
	c.fallbackNanos.Add(time.Since(start).Nanoseconds())

	for k, i := range missIdx {
		out[i] = vals[k]
		entries[k].val = vals[k]
		c.fallbackCache.PutAt(missKeys[k], entries[k], epoch)
	}
	return out
}

// batchFallback mirrors fine.BatchPairAffinityProvider without importing the
// package (avoiding an import cycle, like Edge does for fine.LocalEdge).
type batchFallback interface {
	BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64
}

// Invalidate orphans every cached fallback affinity (O(1) epoch bump).
// Called after writes that change affinity inputs: new events or δ changes.
// The global graph is not cleared — its edges are query-derived knowledge
// the paper's caching engine intentionally accumulates.
func (c *CachedAffinity) Invalidate() { c.fallbackCache.Invalidate() }

// Stats reports the affinity tier's counters: the bounded fallback cache's
// size/capacity/evictions/invalidations, with lookups served straight from
// the global graph folded into Hits. Lookups the underlying cache served
// but scoped validation rejected are moved from Hits to Misses — they paid
// the fallback.
func (c *CachedAffinity) Stats() cache.Stats {
	st := c.fallbackCache.Stats()
	st.Hits += c.graphHits.Load() - c.scopedStale.Load()
	st.Misses += c.scopedStale.Load()
	return st
}

// MaintenanceStats are the affinity tier's incremental-maintenance counters:
// time spent in fallback recomputes (the cost scoped validation avoids),
// entries proven valid across writes vs rejected, and the write-log size.
type MaintenanceStats struct {
	// FallbackNanos is total time spent computing fallback affinities —
	// the recompute cost the write path induces on queries.
	FallbackNanos int64 `json:"fallback_nanos"`
	// ScopedKept counts cached entries that survived at least one write
	// because scoped validation proved them still exact; ScopedStale counts
	// entries a write actually invalidated.
	ScopedKept  int64 `json:"scoped_kept"`
	ScopedStale int64 `json:"scoped_stale"`
	// TrackedDevices is the number of devices with a live write log.
	TrackedDevices int64 `json:"tracked_devices"`
}

// MaintenanceStats snapshots the scoped-validation counters.
func (c *CachedAffinity) MaintenanceStats() MaintenanceStats {
	c.wmu.RLock()
	tracked := int64(len(c.writes))
	c.wmu.RUnlock()
	return MaintenanceStats{
		FallbackNanos:  c.fallbackNanos.Load(),
		ScopedKept:     c.scopedKept.Load(),
		ScopedStale:    c.scopedStale.Load(),
		TrackedDevices: tracked,
	}
}
