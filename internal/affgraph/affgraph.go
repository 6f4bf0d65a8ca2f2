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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locater/internal/cache"
	"locater/internal/event"
)

// WeightedEdge is one timestamped observation of an edge weight, taken from
// a local affinity graph.
type WeightedEdge struct {
	Weight float64
	Time   time.Time
}

// observation is one WeightedEdge as the graph stores it: the instant as
// Unix nanoseconds instead of a time.Time, so an edge vector is 16 bytes
// per entry and holds no pointer for the GC to scan.
type observation struct {
	nanos  int64
	weight float64
}

// Graph is the global affinity graph. It is safe for concurrent use.
type Graph struct {
	mu sync.RWMutex

	// edges[a][b] = observations, stored symmetrically (a < b).
	edges map[event.DeviceID]map[event.DeviceID][]observation

	// sigma of the Gaussian kernel used to collapse edge vectors.
	sigma time.Duration
	// horizon is underflowHorizon(sigma): an observation further than this
	// from t_q adds exactly +0 to the collapse, which therefore skips it.
	horizon time.Duration
	// maxObservations bounds the per-edge vector; oldest entries are
	// dropped first. Negative = unbounded (New turns 0 into 64).
	maxObservations int

	numEdges   int
	numUpdates int
}

type pairKey struct {
	a, b   event.DeviceID
	bucket int64
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
		edges:           make(map[event.DeviceID]map[event.DeviceID][]observation),
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
		a, b := orderPair(e.From, e.To)
		if a == b {
			continue
		}
		m, ok := g.edges[a]
		if !ok {
			m = make(map[event.DeviceID][]observation)
			g.edges[a] = m
		}
		if _, existed := m[b]; !existed {
			g.numEdges++
		}
		v := append(m[b], observation{nanos: tqN, weight: e.Weight})
		if g.maxObservations > 0 && len(v) > g.maxObservations {
			v = v[len(v)-g.maxObservations:]
		}
		m[b] = v
		g.numUpdates++
	}
}

// Edge mirrors fine.LocalEdge without importing the package (avoiding an
// import cycle): a pairwise affinity observation from one query.
type Edge struct {
	From, To event.DeviceID
	Weight   float64
}

// Weight collapses the edge vector between a and b into a single affinity
// at query time tq: a Gaussian-kernel weighted average with µ = t_q,
// σ = Options.Sigma, normalized over the observations (paper Section 5).
// Returns 0 when the edge does not exist.
func (g *Graph) Weight(a, b event.DeviceID, tq time.Time) float64 {
	a, b = orderPair(a, b)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.weightLocked(a, b, tq.UnixNano())
}

// weightLocked collapses one edge vector at t_q (Unix nanos). Terms further
// than the underflow horizon from t_q are skipped: math.Exp would return +0
// for them, and adding +0 (times a finite weight) leaves num and den as they
// were, so the kept terms sum in the same order to the same bits, and the
// plain-average fallback triggers exactly when it would with every term.
func (g *Graph) weightLocked(a, b event.DeviceID, tqN int64) float64 {
	m, ok := g.edges[a]
	if !ok {
		return 0
	}
	obs, ok := m[b]
	if !ok || len(obs) == 0 {
		return 0
	}
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
// out[:len(cands)] under a single shared lock — the batched form of Weight
// the fine stage's affinity sweep uses so a query with N neighbors takes the
// graph lock once, not N times. out is caller-owned scratch and is grown as
// needed.
func (g *Graph) WeightsBatch(d event.DeviceID, cands []event.DeviceID, tq time.Time, out []float64) []float64 {
	if cap(out) < len(cands) {
		out = make([]float64, len(cands))
	}
	out = out[:len(cands)]
	tqN := tq.UnixNano()
	g.mu.RLock()
	defer g.mu.RUnlock()
	for i, n := range cands {
		a, b := orderPair(d, n)
		out[i] = g.weightLocked(a, b, tqN)
	}
	return out
}

// OrderNeighbors sorts the neighbor candidates by decreasing collapsed edge
// weight w.r.t. the queried device, breaking ties by device ID. Devices
// with no edge sort after devices with edges (weight 0), preserving their
// relative input order. This implements fine.NeighborOrderer.
func (g *Graph) OrderNeighbors(d event.DeviceID, neighbors []event.DeviceID, tq time.Time) []event.DeviceID {
	type scored struct {
		dev    event.DeviceID
		weight float64
		pos    int
	}
	tqN := tq.UnixNano()
	g.mu.RLock()
	ss := make([]scored, len(neighbors))
	for i, n := range neighbors {
		a, b := orderPair(d, n)
		ss[i] = scored{dev: n, weight: g.weightLocked(a, b, tqN), pos: i}
	}
	g.mu.RUnlock()
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].weight != ss[j].weight {
			return ss[i].weight > ss[j].weight
		}
		return ss[i].pos < ss[j].pos
	})
	out := make([]event.DeviceID, len(ss))
	for i, s := range ss {
		out[i] = s.dev
	}
	return out
}

// NumEdges returns the number of distinct edges in the graph.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.numEdges
}

// NumDevices returns the number of devices that appear in at least one edge.
func (g *Graph) NumDevices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := make(map[event.DeviceID]bool)
	for a, m := range g.edges {
		if len(m) > 0 {
			seen[a] = true
		}
		for b := range m {
			seen[b] = true
		}
	}
	return len(seen)
}

// Observations returns a copy of the raw edge vector (diagnostics), with
// times in UTC.
func (g *Graph) Observations(a, b event.DeviceID) []WeightedEdge {
	a, b = orderPair(a, b)
	g.mu.RLock()
	defer g.mu.RUnlock()
	m, ok := g.edges[a]
	if !ok {
		return nil
	}
	obs := m[b]
	out := make([]WeightedEdge, len(obs))
	for i, o := range obs {
		out[i] = WeightedEdge{Weight: o.weight, Time: time.Unix(0, o.nanos).UTC()}
	}
	return out
}

// CachedAffinity is a fine.PairAffinityProvider that first consults the
// global graph and falls back to the underlying provider on a miss, caching
// the fallback's answers in a bounded LRU keyed by (pair, time bucket).
//
// Staleness after writes is handled with SCOPED per-device validation
// instead of a whole-cache epoch bump. Every cached entry is stamped with
// the write sequence numbers of its two devices at computation time
// (affEntry); ObserveIngest records each device's writes together with the
// minimum event timestamp of the batch. A cached (pair, bucket) entry
// remains provably byte-identical to a fresh recompute as long as every
// write to either device since the entry was computed carries only events
// AFTER the bucket's end: the fallback affinity over (ref−window, ref]
// depends only on the two devices' events with time ≤ ref ≤ bucketEnd (see
// fine.DeviceAffinity) plus δ, and δ changes route through
// InvalidateDevice/Invalidate. So steady-state ingest of recent events —
// the fleet write pattern — invalidates nothing, where the old epoch bump
// recomputed every pair after every write.
//
// The global Invalidate (O(1) epoch bump) remains for writes scoped
// validation cannot express, e.g. EstimateDeltas changing every δ at once.
//
// One documented relaxation: a waiter that joins an in-flight computation
// re-validates the result against the write log before consuming it, but a
// write landing in the microseconds between that check and the caller's use
// is indistinguishable from the write landing just after the query — the
// same pre/post ordering ambiguity any concurrent read/write pair has.
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
	// synchronize plain lookups, so the common hit path never touches mu.
	fallbackCache *cache.Cache[pairKey, affEntry]
	// mu guards inflight, which deduplicates concurrent misses for the
	// same key (singleflight): the fallback computation is the most
	// expensive step of the fine stage, so only one goroutine runs it
	// while the rest wait for its result.
	mu       sync.Mutex
	inflight map[pairKey]*inflightAffinity

	// wmu guards writes, the per-device write log scoped validation reads.
	// Lock order: mu before wmu; neither is held across a fallback compute.
	wmu    sync.RWMutex
	writes map[event.DeviceID]*devWrites

	graphHits     atomic.Int64
	fallbackNanos atomic.Int64
	scopedKept    atomic.Int64
	scopedStale   atomic.Int64
}

// affEntry is one cached fallback affinity, stamped with the write
// sequence numbers of the (ordered) pair's devices captured when its
// computation was claimed.
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

// inflightAffinity is one in-progress fallback computation. val and ok are
// written before done is closed, so waiters reading after <-done see them.
// ok is false when the leader's fallback panicked: no value was computed,
// and waiters must retry rather than consume a bogus zero. epoch is the
// cache epoch the leader captured before computing; a waiter that joined at
// a later epoch (an invalidating write landed in between) must also retry —
// its query began after the write, so it may not consume the pre-write
// value.
type inflightAffinity struct {
	done  chan struct{}
	epoch uint64
	// seqA/seqB are the pair devices' write sequence numbers captured when
	// the computation was claimed; the cached entry is stamped with them.
	seqA uint64
	seqB uint64
	val  float64
	ok   bool
}

// DefaultFallbackCacheSize bounds the fallback cache when NewCachedAffinity
// is given a non-positive capacity: 64Ki (pair, bucket) entries ≈ 3 MB.
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
		inflight:      make(map[pairKey]*inflightAffinity),
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
// through BatchPairAffinity, whose accounting, singleflight and
// invalidation semantics it shares.
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

// seqsOf reads the pair devices' current write sequence numbers.
func (c *CachedAffinity) seqsOf(a, b event.DeviceID) (sa, sb uint64) {
	c.wmu.RLock()
	if dw := c.writes[a]; dw != nil {
		sa = dw.seq
	}
	if dw := c.writes[b]; dw != nil {
		sb = dw.seq
	}
	c.wmu.RUnlock()
	return sa, sb
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

// seqsStillValid is entryScopedValid for an in-flight result a waiter is
// about to consume.
func (c *CachedAffinity) seqsStillValid(seqA, seqB uint64, key pairKey, bucketEnd int64) bool {
	valid, _ := c.entryScopedValid(affEntry{seqA: seqA, seqB: seqB}, key, bucketEnd)
	return valid
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
// cached fallback answers fill in next; the remaining misses are computed in
// ONE batched fallback sweep (when the fallback implements the batch
// interface) instead of a per-pair copy each, which is where a cold query
// with N neighbors used to pay 2N history copies.
//
// Accounting: a lookup served by the global graph counts as a hit (tracked
// separately and folded into Stats), a cached fallback answer counts as a
// hit, and everything that reaches the fallback — the singleflight leader
// and every waiter that shares its computation — counts as a miss.
// Concurrent misses for the same key share one computation (singleflight);
// waiters also share the leader's error path: if the leader's fallback
// panicked, they retry instead of consuming an uncomputed zero. A
// computation that predates an epoch bump is returned to its own caller but
// never cached.
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

	// Claim or join an in-flight computation per missing key. Keys this call
	// claims are computed below in one batched fallback sweep; keys another
	// goroutine is already computing are joined after our own sweep
	// publishes (so their waiters are never blocked on us).
	c.mu.Lock()
	var leadIdx []int // positions into missIdx/missKeys this call leads
	var leadCalls []*inflightAffinity
	// Every key this call leads completes at the same moment (one batched
	// sweep publishes them together), so they share a single done channel.
	var leadDone chan struct{}
	type joined struct {
		pos   int // index into cands/out
		call  *inflightAffinity
		epoch uint64
	}
	var joins []joined
	for mi, key := range missKeys {
		if e, ok := c.fallbackCache.Peek(key); ok {
			if valid, survived := c.entryScopedValid(e, key, bucketEnd); valid {
				if survived {
					c.scopedKept.Add(1)
				}
				out[missIdx[mi]] = e.val
				continue
			}
			c.scopedStale.Add(1)
			c.fallbackCache.Delete(key)
		}
		if call, ok := c.inflight[key]; ok {
			joins = append(joins, joined{pos: missIdx[mi], call: call, epoch: c.fallbackCache.Epoch()})
			continue
		}
		if leadDone == nil {
			leadDone = make(chan struct{})
		}
		sa, sb := c.seqsOf(key.a, key.b)
		call := &inflightAffinity{done: leadDone, epoch: c.fallbackCache.Epoch(), seqA: sa, seqB: sb}
		c.inflight[key] = call
		leadIdx = append(leadIdx, mi)
		leadCalls = append(leadCalls, call)
	}
	c.mu.Unlock()

	if len(leadIdx) > 0 {
		leadDevs := make([]event.DeviceID, len(leadIdx))
		leadKeys := make([]pairKey, len(leadIdx))
		for k, mi := range leadIdx {
			leadDevs[k] = cands[missIdx[mi]]
			leadKeys[k] = missKeys[mi]
		}
		vals := c.leadBatchFallback(d, leadDevs, ref, leadKeys, leadCalls, leadDone)
		for k, mi := range leadIdx {
			out[missIdx[mi]] = vals[k]
		}
	}
	for _, j := range joins {
		<-j.call.done
		if j.call.ok && j.call.epoch == j.epoch {
			x, y := orderPair(d, cands[j.pos])
			key := pairKey{a: x, b: y, bucket: bucket}
			if c.seqsStillValid(j.call.seqA, j.call.seqB, key, bucketEnd) {
				out[j.pos] = j.call.val
				continue
			}
		}
		// The foreign leader panicked or its computation predates a write
		// observed before this query joined: re-resolve the pair (which
		// retries until it leads or reads a fresh value).
		out[j.pos] = c.PairAffinity(d, cands[j.pos], ref)
	}
	return out
}

// leadBatchFallback computes the claimed keys' affinities in one batched
// fallback sweep and publishes them. Publication happens in a defer, so a
// panicking fallback can never leave waiters blocked; only successful
// computations are cached, and only at the epoch captured
// when the key was claimed. done is the completion channel every claimed
// key's inflight entry shares — closed exactly once, after all values are
// written.
func (c *CachedAffinity) leadBatchFallback(d event.DeviceID, devs []event.DeviceID, ref time.Time, keys []pairKey, calls []*inflightAffinity, done chan struct{}) (vals []float64) {
	computed := false
	defer func() {
		c.mu.Lock()
		for i, key := range keys {
			if computed {
				c.fallbackCache.PutAt(key, affEntry{val: vals[i], seqA: calls[i].seqA, seqB: calls[i].seqB}, calls[i].epoch)
			}
			delete(c.inflight, key)
		}
		c.mu.Unlock()
		for i, call := range calls {
			if computed {
				call.val = vals[i]
			}
			call.ok = computed
		}
		close(done)
	}()
	start := time.Now()
	if bf, ok := c.Fallback.(batchFallback); ok {
		vals = bf.BatchPairAffinity(d, devs, ref, make([]float64, 0, len(devs)))
	} else {
		vals = make([]float64, len(devs))
		for i, dev := range devs {
			vals[i] = c.Fallback.PairAffinity(d, dev, ref)
		}
	}
	c.fallbackNanos.Add(time.Since(start).Nanoseconds())
	computed = true
	return vals
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
