package fine

import (
	"fmt"
	"math"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// Variant selects the fine-localization posterior model.
type Variant int

const (
	// Independent is I-FINE: neighbors influence the posterior
	// independently (Eq. 3) and the min/max/expected bounds of
	// Theorems 1–3 drive the loose stop conditions.
	Independent Variant = iota
	// Dependent is D-FINE: neighbors are grouped into affinity clusters
	// that influence the posterior jointly (Eq. 6).
	Dependent
)

// String names the variant like the paper ("I-FINE"/"D-FINE").
func (v Variant) String() string {
	switch v {
	case Independent:
		return "I-FINE"
	case Dependent:
		return "D-FINE"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures the fine localizer.
type Options struct {
	// Weights are the room-affinity weights; DefaultWeights when zero.
	Weights Weights
	// Variant selects I-FINE or D-FINE.
	Variant Variant
	// UseStopConditions enables the loose early-termination conditions
	// (Section 4.2). Disabling processes every neighbor (Fig. 11 ablation).
	UseStopConditions bool
	// HistoryWindow bounds the history used for device affinities.
	// Default 8 weeks.
	HistoryWindow time.Duration
}

// neighborWindow is how far around t_q to look for neighbor-device events
// (widened to the queried device's δ when that is longer). Devices in gaps
// have no event within ±δ of t_q, so it must exceed the typical validity
// interval.
const neighborWindow = time.Hour

func (o Options) withDefaults() Options {
	if (o.Weights == Weights{}) {
		o.Weights = DefaultWeights()
	}
	if o.HistoryWindow <= 0 {
		o.HistoryWindow = 8 * 7 * 24 * time.Hour
	}
	return o
}

// NeighborOrderer optionally reorders the neighbor set before Algorithm 2
// processes it. The caching engine's global affinity graph implements this
// to process high-affinity devices first (paper Section 5). The neighbors
// slice is query-scoped scratch: implementations must not retain it past the
// call (returning a fresh slice, as the affinity graph does, is fine).
type NeighborOrderer interface {
	OrderNeighbors(d event.DeviceID, neighbors []event.DeviceID, tq time.Time) []event.DeviceID
}

// NeighborSource discovers candidate neighbor devices for Algorithm 2: the
// devices with at least one event in [start, end] at one of the given APs
// (nil aps = any AP). store.Store implements it — backed by its temporal
// occupancy index — and is the default; tests may stub it.
type NeighborSource interface {
	ActiveDevicesAt(aps []space.APID, start, end time.Time) []event.DeviceID
}

// Localizer answers room-level queries.
//
// The query kernel is built for allocation discipline: all per-query state
// lives in a pooled scratch (dense room-indexed slices, a float arena for
// per-neighbor support vectors), pairwise affinities against the queried
// device are computed in one batched history sweep instead of per-pair
// copies, I-FINE posteriors are maintained by running log-odds accumulators,
// and D-FINE keeps one union-find across iterations with every
// intra-neighbor affinity computed exactly once. Posteriors are equivalent
// to the pre-optimization kernel preserved in reference_test.go (bitwise for
// I-FINE; within cluster-summation reordering, ≪1e-12, for D-FINE).
type Localizer struct {
	opts     Options
	building *space.Building
	store    *store.Store
	affinity PairAffinityProvider
	// batch is affinity's batched entry point, when it implements one
	// (resolved once at construction; nil otherwise).
	batch   BatchPairAffinityProvider
	orderer NeighborOrderer

	// neighbors discovers candidate neighbor devices; defaults to the store
	// (whose occupancy index answers region-scoped lookups in time
	// proportional to the devices actually active in the window).
	neighbors NeighborSource

	// coarseRegion resolves a neighbor device's region at tq; injected by
	// the system so fine can reason about devices in gaps too. May be nil:
	// then only devices inside a validity interval count as online.
	coarseRegion func(d event.DeviceID, tq time.Time) (space.RegionID, bool)

	// labels optionally sharpens priors with crowd-sourced room labels.
	labels *LabelStore
}

// Result is the fine-level answer.
type Result struct {
	Room space.RoomID
	// Probability is the posterior of the winning room.
	Probability float64
	// Posterior maps every candidate room to its posterior (diagnostics).
	Posterior map[space.RoomID]float64
	// ProcessedNeighbors counts how many neighbor devices Algorithm 2
	// consumed before stopping.
	ProcessedNeighbors int
	// TotalNeighbors is the size of the neighbor set D_n.
	TotalNeighbors int
	// StoppedEarly is true when a loose stop condition fired before all
	// neighbors were processed.
	StoppedEarly bool
	// LocalGraph carries the pairwise edges computed during this query for
	// the caching engine (device, weight) — see Section 5.
	LocalGraph []LocalEdge
}

// LocalEdge is one edge of the local affinity graph built while answering a
// query: the average group affinity between the queried device and the
// neighbor across candidate rooms.
type LocalEdge struct {
	From, To event.DeviceID
	Weight   float64
}

// New creates a fine localizer. affinity may be nil (a store-backed provider
// over opts.HistoryWindow is used); orderer may be nil (store order).
func New(b *space.Building, st *store.Store, affinity PairAffinityProvider, orderer NeighborOrderer, opts Options) *Localizer {
	opts = opts.withDefaults()
	if affinity == nil {
		affinity = NewStoreAffinity(st, opts.HistoryWindow)
	}
	l := &Localizer{
		opts:      opts,
		building:  b,
		store:     st,
		affinity:  affinity,
		orderer:   orderer,
		neighbors: st,
	}
	l.batch, _ = affinity.(BatchPairAffinityProvider)
	return l
}

// SetNeighborSource replaces the candidate-neighbor discovery backend (the
// store by default). Call during setup, before queries are served.
func (l *Localizer) SetNeighborSource(src NeighborSource) {
	if src != nil {
		l.neighbors = src
	}
}

// SetCoarseResolver injects a resolver that returns a neighbor's region at
// t_q when the neighbor is in a gap (LOCATER wires the coarse localizer in).
func (l *Localizer) SetCoarseResolver(f func(d event.DeviceID, tq time.Time) (space.RegionID, bool)) {
	l.coarseRegion = f
}

// neighborInfo captures everything Algorithm 2 needs about one neighbor.
// The room distributions are dense slices indexed by the room's position in
// the query's sorted candidate set, backed by the query scratch arena — they
// are valid only for the query's lifetime.
type neighborInfo struct {
	dev event.DeviceID
	// region the neighbor is located in at tq.
	region space.RegionID
	// pairAffinity = α({d_i, d_k}): the device affinity of the pair.
	pairAffinity float64
	// support[ri] = α({d_i, d_k}, r, t_q): the pairwise group affinity
	// (Eq. 1) for candidate room index ri; zero outside the pair's
	// intersecting rooms R_is.
	support []float64
	// condI[ri] = P(@(d_i, r) | @(d_i, R_is)): the queried device's
	// conditional room probability within the pair's intersecting rooms
	// (zero outside R_is). Used by the Theorem 1/2 bounds.
	condI []float64
	// condK[ri] is the analogous conditional for the neighbor device.
	condK []float64
	// sameRoomProb = α_pair · Σ_{r ∈ R_is} cond_i(r)·cond_k(r): the
	// probability that the pair is co-located in the same room — the total
	// group-affinity mass. It weights how much this neighbor's evidence
	// can displace the prior.
	sameRoomProb float64
}

// Locate disambiguates the room for device d known to be in region g at
// time tq (the coarse stage's output).
func (l *Localizer) Locate(d event.DeviceID, g space.RegionID, tq time.Time) (Result, error) {
	// The candidate set and the queried device's prior are computed exactly
	// once here and threaded through the whole query via the scratch (the
	// pre-fix kernel re-derived the candidates in neighborSet and the prior
	// conditional in every pairSupport call).
	candidates := l.building.CandidateRooms(g)
	if len(candidates) == 0 {
		return Result{}, fmt.Errorf("fine: region %s has no candidate rooms", g)
	}
	qc := acquireQueryCtx(candidates)
	defer qc.release()
	l.priorInto(d, candidates, tq, qc.prior)
	for i, p := range qc.prior {
		qc.lp[i] = logit(p)
	}

	neighbors := l.neighborSet(qc, d, g, tq)
	if l.orderer != nil {
		neighbors = l.reorder(qc, d, neighbors, tq)
	}

	var res Result
	switch l.opts.Variant {
	case Dependent:
		res = l.locateDependent(qc, neighbors, tq)
	default:
		res = l.locateIndependent(qc, neighbors)
	}
	// TotalNeighbors reports the full neighbor set D_n found.
	res.TotalNeighbors = len(neighbors)

	// Local affinity graph edges: w = Σ_r α({d_a, d_b}, r, t_q) / |R(g_x)|.
	for i := 0; i < res.ProcessedNeighbors && i < len(neighbors); i++ {
		n := &neighbors[i]
		sum := 0.0
		for _, s := range n.support {
			sum += s
		}
		res.LocalGraph = append(res.LocalGraph, LocalEdge{
			From:   d,
			To:     n.dev,
			Weight: sum / float64(len(candidates)),
		})
	}
	return res, nil
}

// reorder applies the NeighborOrderer (global affinity graph) to the
// neighbor set, preserving entries the orderer does not know about.
func (l *Localizer) reorder(qc *queryCtx, d event.DeviceID, neighbors []neighborInfo, tq time.Time) []neighborInfo {
	qc.devs = qc.devs[:0]
	for i := range neighbors {
		qc.devs = append(qc.devs, neighbors[i].dev)
	}
	ordered := l.orderer.OrderNeighbors(d, qc.devs, tq)
	if qc.byDev == nil {
		qc.byDev = make(map[event.DeviceID]int, len(neighbors))
	}
	for i := range neighbors {
		qc.byDev[neighbors[i].dev] = i
	}
	out := qc.ordered[:0]
	for _, dev := range ordered {
		if i, ok := qc.byDev[dev]; ok {
			out = append(out, neighbors[i])
			delete(qc.byDev, dev)
		}
	}
	for i := range neighbors {
		if _, left := qc.byDev[neighbors[i].dev]; left {
			out = append(out, neighbors[i])
			delete(qc.byDev, neighbors[i].dev)
		}
	}
	qc.ordered = out
	return out
}

// neighborSet finds D_n(d): devices online at tq whose region's candidate
// rooms overlap the queried device's candidates and whose pairwise group
// affinity is positive for some room (paper Section 4.2).
//
// Discovery is region-scoped: only devices with an event at an AP whose
// region overlaps g (Building.OverlappingAPs) are considered, so the
// candidate scan is proportional to the query region's neighborhood, not
// the whole campus. The pairwise device affinities of every candidate that
// passes the region/online filters are then computed in ONE batched history
// sweep — the queried device's log is fetched once per query, not twice per
// pair (see BatchDeviceAffinity).
func (l *Localizer) neighborSet(qc *queryCtx, d event.DeviceID, g space.RegionID, tq time.Time) []neighborInfo {
	window := neighborWindow
	if d2 := l.store.Delta(d); d2 > window {
		window = d2
	}
	active := l.neighbors.ActiveDevicesAt(l.building.OverlappingAPs(g), tq.Add(-window), tq.Add(window))

	// Pass 1: the cheap structural filters — online, overlapping region.
	qc.cands = qc.cands[:0]
	for _, dk := range active {
		if dk == d {
			continue
		}
		region, online := l.deviceRegionAt(dk, tq)
		if !online {
			continue
		}
		// (iii) overlapping regions.
		if !l.building.OverlappingRegions(g, region) {
			continue
		}
		qc.cands = append(qc.cands, pendingNeighbor{dev: dk, region: region})
	}

	// Pass 2: one batched affinity sweep over every surviving candidate.
	qc.devs = qc.devs[:0]
	for i := range qc.cands {
		qc.devs = append(qc.devs, qc.cands[i].dev)
	}
	qc.affs = l.batchAffinity(d, qc.devs, tq, qc.affs)

	// Pass 3: (ii) positive group affinity for some candidate room.
	out := qc.neighbors[:0]
	for i := range qc.cands {
		pa := qc.affs[i]
		if pa <= 0 {
			continue
		}
		n, positive := l.pairSupport(qc, qc.cands[i].dev, qc.cands[i].region, pa, tq)
		if !positive {
			continue
		}
		out = append(out, n)
	}
	qc.neighbors = out
	return out
}

// batchAffinity computes α({d, c}) for every candidate in one call through
// the provider's batched entry point, falling back to a per-pair loop for
// providers (like scripted test doubles) that only implement PairAffinity.
func (l *Localizer) batchAffinity(d event.DeviceID, devs []event.DeviceID, tq time.Time, out []float64) []float64 {
	if l.batch != nil {
		return l.batch.BatchPairAffinity(d, devs, tq, out)
	}
	out = growFloats(out, len(devs))
	for i, dk := range devs {
		out[i] = l.affinity.PairAffinity(d, dk, tq)
	}
	return out
}

// deviceRegionAt resolves which region a device is in at tq: from a validity
// interval when connected, else via the injected coarse resolver.
func (l *Localizer) deviceRegionAt(d event.DeviceID, tq time.Time) (space.RegionID, bool) {
	if ap, ok := l.store.CurrentAP(d, tq); ok {
		if g, ok2 := l.building.RegionOf(ap); ok2 {
			return g, true
		}
		return "", false
	}
	if l.coarseRegion != nil {
		return l.coarseRegion(d, tq)
	}
	return "", false
}

// pairSupport computes, for every candidate room r of the queried device,
// the pairwise group affinity s_k(r) = α({d_i, d_k}, r, t_q) (Eq. 1) along
// with both devices' conditionals over the pair's intersecting rooms R_is,
// into arena-backed dense slices. The (R_is, queried-device conditional)
// part depends only on the neighbor's region and is computed once per region
// per query (regionCtxFor). Reports whether any room's support is positive.
func (l *Localizer) pairSupport(qc *queryCtx, dk event.DeviceID, gk space.RegionID, pairAffinity float64, tq time.Time) (neighborInfo, bool) {
	n := neighborInfo{dev: dk, region: gk, pairAffinity: pairAffinity}
	rc := qc.regionCtxFor(l, gk)
	if len(rc.risIdx) == 0 {
		return n, false
	}
	nc := len(qc.candidates)
	buf := qc.arena.alloc(3 * nc)
	n.support = buf[:nc:nc]
	n.condI = buf[nc : 2*nc : 2*nc]
	n.condK = buf[2*nc : 3*nc : 3*nc]

	l.neighborCondInto(qc, rc, dk, gk, tq, n.condK)
	mass := 0.0
	for _, ri := range rc.risIdx {
		mass += rc.condD[ri] * n.condK[ri]
	}
	n.sameRoomProb = pairAffinity * mass
	if n.sameRoomProb > 1 {
		n.sameRoomProb = 1
	}
	positive := false
	for _, ri := range rc.risIdx {
		cd := rc.condD[ri]
		n.condI[ri] = cd
		s := groupAffinity2(pairAffinity, cd, n.condK[ri])
		n.support[ri] = s
		if s > 0 {
			positive = true
		}
	}
	return n, positive
}

// groupAffinity2 is GroupAffinity specialized to a pair (the only group size
// Eq. 1 is evaluated for on the per-neighbor path), with the same
// multiplication order so results are bitwise identical.
func groupAffinity2(deviceAffinity, c1, c2 float64) float64 {
	if deviceAffinity <= 0 || c1 <= 0 || c2 <= 0 {
		return 0
	}
	return deviceAffinity * c1 * c2
}

// neighborCondInto computes the neighbor's conditional room distribution
// P(@(d_k, r) | @(d_k, R_is)) into ck (dense over the query's candidates, at
// the R_is positions): the neighbor's prior over R(g_k) is computed in
// scratch (priorInto) and normalized over R_is.
func (l *Localizer) neighborCondInto(qc *queryCtx, rc *regionCtx, dk event.DeviceID, gk space.RegionID, tq time.Time, ck []float64) {
	gkRooms := l.building.CandidateRooms(gk)
	qc.gkVals = growFloats(qc.gkVals, len(gkRooms))
	vals := qc.gkVals
	l.priorInto(dk, gkRooms, tq, vals)
	total := 0.0
	for _, gj := range rc.risGkIdx {
		total += vals[gj]
	}
	if total <= 0 {
		u := 1.0 / float64(len(rc.risIdx))
		for _, ri := range rc.risIdx {
			ck[ri] = u
		}
		return
	}
	for k, ri := range rc.risIdx {
		ck[ri] = vals[rc.risGkIdx[k]] / total
	}
}

// priorInto writes dev's room prior over rooms into vals (parallel to
// rooms): the metadata room affinity at t_q, sharpened by the attached
// crowd-sourced labels.
func (l *Localizer) priorInto(dev event.DeviceID, rooms []space.RoomID, tq time.Time, vals []float64) {
	roomPriorInto(l.building, l.opts.Weights, dev, rooms, tq, vals)
	if l.labels != nil {
		l.labels.BlendDense(dev, rooms, vals)
	}
}

// --- posterior combination ------------------------------------------------
//
// The paper's Eq. 3 combines pairwise group affinities into
// P(r | D̄_n) = 1/(1 + Π(1−s_k)/Π s_k). Applied verbatim, a single neighbor
// whose intersecting-room set excludes r forces P(r) = 0 even when the prior
// strongly favors r, which destroys precision for isolated devices. We keep
// the same product-of-odds structure but combine the per-neighbor evidence
// in log-odds space anchored at the prior — the standard naive-Bayes
// identity logit P(r|e_1..e_n) = logit P(r) + Σ (logit P(r|e_k) − logit P(r))
// — with per-neighbor posteriors given by the co-location mixture
//
//	P(r | obs_k) = s_k(r) + (1 − z_k)·prior(r)
//	s_k(r) = α_pair·cond_i(r)·cond_k(r)·1[r ∈ R_is]   (Eq. 1)
//	z_k    = Σ_{r ∈ R_is} s_k(r)                      (same-room probability)
//
// — with probability z_k the pair is co-located in one room (distributed by
// the group affinities), otherwise the neighbor is uninformative and the
// prior stands. Eq. 3's group-affinity supports appear unchanged; the prior
// term only prevents the hard-zero collapse. Recorded in DESIGN.md.
//
// The additive structure is what makes the optimized kernel incremental:
// the per-room accumulator acc[ri] holds logit(prior) + Σ_k evidence terms,
// each neighbor adds its term once, and the posterior is sigmoid(acc[ri]).
// Because the reference recomputes exactly the same left-to-right sum every
// iteration, the running accumulator is bitwise identical to it.

const probEps = 1e-9

func logit(p float64) float64 {
	if p < probEps {
		p = probEps
	}
	if p > 1-probEps {
		p = 1 - probEps
	}
	return math.Log(p / (1 - p))
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		e := math.Exp(-x)
		return 1 / (1 + e)
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// combinePosterior folds blended per-neighbor posteriors into the prior.
func combinePosterior(prior float64, blended []float64) float64 {
	if len(blended) == 0 {
		return prior
	}
	lp := logit(prior)
	acc := lp
	for _, b := range blended {
		acc += logit(b) - lp
	}
	return sigmoid(acc)
}

// hypoSupport is P(r | neighbor known to be in room w) for the
// possible-world bounds: if the neighbor is hypothesized in room r
// (inRoom), its own conditional becomes 1 so the co-location term is
// α_pair·cond_i(r); hypothesized elsewhere, only the uninformative prior
// term remains. This is monotone in the hypothesis, so Theorem 1's world
// (all unprocessed in r_j) maximizes the posterior and Theorem 2's world
// (all in r_max ≠ r_j) minimizes it.
func hypoSupport(inRoom bool, pairAffinity, condI, prior float64) float64 {
	co := pairAffinity * condI
	if co > 1 {
		co = 1
	}
	s := (1 - co) * prior
	if inRoom {
		s += co
	}
	return s
}

// --- Independent variant (I-FINE) --------------------------------------

// locateIndependent runs Algorithm 2's independent combination with running
// per-room log-odds accumulators: each neighbor contributes its evidence
// term once (O(|rooms|) per neighbor, O(n·|rooms|) per query) instead of the
// reference's full re-summation at every step (O(n²·|rooms|) logit
// evaluations). The accumulator holds exactly the left-to-right partial sums
// the reference recomputes, so posteriors are bitwise identical.
func (l *Localizer) locateIndependent(qc *queryCtx, neighbors []neighborInfo) Result {
	nc := len(qc.candidates)
	for i := 0; i < nc; i++ {
		qc.post[i] = qc.prior[i]
		qc.acc[i] = qc.lp[i]
	}

	processed := 0
	stopped := false
	for idx := range neighbors {
		n := &neighbors[idx]
		oneMinus := 1 - n.sameRoomProb
		for ri := 0; ri < nc; ri++ {
			b := n.support[ri] + oneMinus*qc.prior[ri]
			qc.acc[ri] += logit(b) - qc.lp[ri]
		}
		processed = idx + 1
		if !l.opts.UseStopConditions {
			// Nothing reads the posterior mid-loop without stop checks;
			// it is materialized from the accumulator once, after the loop.
			continue
		}
		for ri := 0; ri < nc; ri++ {
			qc.post[ri] = sigmoid(qc.acc[ri])
		}
		if l.checkStop(qc, neighbors[processed:]) {
			stopped = processed < len(neighbors)
			break
		}
	}
	if processed > 0 && !l.opts.UseStopConditions {
		for ri := 0; ri < nc; ri++ {
			qc.post[ri] = sigmoid(qc.acc[ri])
		}
	}
	return qc.result(processed, stopped)
}

// checkStop evaluates the loose stop conditions on the top-2 rooms:
//
//  1. minP(r_a | D̄_n) > expP(r_b | D̄_n), or
//  2. expP(r_a | D̄_n) > maxP(r_b | D̄_n),
//
// where expP = P (Theorem 3), maxP assumes every unprocessed neighbor is in
// the room (Theorem 1), and minP assumes they are all in the best other room
// (Theorem 2).
func (l *Localizer) checkStop(qc *queryCtx, unprocessed []neighborInfo) bool {
	if len(qc.candidates) < 2 {
		return true
	}
	ra, rb := top2Dense(qc.post)
	if len(unprocessed) == 0 {
		return qc.post[ra] > qc.post[rb]
	}
	minA := qc.boundPosterior(ra, unprocessed, false)
	maxB := qc.boundPosterior(rb, unprocessed, true)
	// expA/expB are the current posteriors (Theorem 3).
	return minA > qc.post[rb] || qc.post[ra] > maxB
}

// boundPosterior computes maxP (assumeIn=true: every unprocessed neighbor
// hypothesized in the room, Theorem 1) or minP (assumeIn=false: every
// unprocessed neighbor hypothesized in the rival room, Theorem 2), starting
// from the processed-evidence accumulator instead of rebuilding the support
// slice the reference re-materializes on every check.
func (qc *queryCtx) boundPosterior(ri int, unprocessed []neighborInfo, assumeIn bool) float64 {
	acc := qc.acc[ri]
	lp := qc.lp[ri]
	prior := qc.prior[ri]
	for i := range unprocessed {
		n := &unprocessed[i]
		h := hypoSupport(assumeIn, n.pairAffinity, n.condI[ri], prior)
		acc += logit(h) - lp
	}
	return sigmoid(acc)
}

// --- Dependent variant (D-FINE) -----------------------------------------

// locateDependent clusters the processed neighbors by nonzero pairwise
// device affinity and lets each cluster influence the posterior jointly,
// following Eq. 6's structure: the cluster-wide group affinity
//
//	α({D̄_nl, d_i}, r, t_q) = A_l · cond_i(r) · Π_{d_k ∈ D̄_nl} cond_k(r)
//
// (A_l = the cluster's device affinity, approximated by the minimum pairwise
// affinity with the queried device) replaces the per-neighbor group affinity
// in the evidence combination. Processing stops early when every cluster's
// affinity is zero for all rooms (the paper's D-FINE termination).
//
// Clustering is incremental: one union-find persists across iterations, the
// new neighbor's intra-set affinities are computed in a single batched sweep
// (each pair exactly once per query — O(n²) affinity lookups total, versus
// the reference's from-scratch O(n²)-per-step re-clustering, O(n³) lookups),
// and only the cluster the new neighbor joins or merges is re-scored.
func (l *Localizer) locateDependent(qc *queryCtx, neighbors []neighborInfo, tq time.Time) Result {
	nc := len(qc.candidates)
	for i := 0; i < nc; i++ {
		qc.post[i] = qc.prior[i]
	}
	df := &qc.dfine
	df.reset(len(neighbors))

	processed := 0
	stopped := false
	for idx := range neighbors {
		processed = idx + 1
		l.dfineAddNeighbor(qc, neighbors, idx, tq)

		if !l.opts.UseStopConditions {
			continue
		}
		anyPositive := false
		for _, cl := range df.clusters {
			if cl != nil && cl.positive {
				anyPositive = true
				break
			}
		}
		if !anyPositive {
			stopped = processed < len(neighbors)
			break
		}
	}
	// The posterior is a pure function of the final cluster state — nothing
	// reads it mid-loop — so the cluster fold runs once, after the loop,
	// instead of per iteration (the reference's per-step re-fold is where
	// its O(n·clusters·rooms) posterior cost came from).
	if processed > 0 {
		order := df.clusterOrder()
		for ri := 0; ri < nc; ri++ {
			blended := qc.blended[:0]
			prior := qc.prior[ri]
			for _, root := range order {
				cl := df.clusters[root]
				blended = append(blended, cl.ga[ri]+(1-cl.z)*prior)
			}
			qc.blended = blended
			qc.post[ri] = combinePosterior(prior, blended)
		}
	}
	return qc.result(processed, stopped)
}

// dfineAddNeighbor folds neighbor idx into the incremental cluster state:
// one batched affinity sweep against the already-processed neighbors (the
// query-lifetime memo — each intra-neighbor pair is computed exactly once),
// union-find edge insertion, and a re-score of the single affected cluster.
func (l *Localizer) dfineAddNeighbor(qc *queryCtx, neighbors []neighborInfo, idx int, tq time.Time) {
	df := &qc.dfine
	qc.devs = qc.devs[:0]
	for i := 0; i < idx; i++ {
		qc.devs = append(qc.devs, neighbors[i].dev)
	}
	qc.affs = l.batchAffinity(neighbors[idx].dev, qc.devs, tq, qc.affs)
	for i := 0; i < idx; i++ {
		if qc.affs[i] > 0 {
			df.union(i, idx)
		}
	}

	// Rebuild the (possibly merged) cluster containing idx: members in
	// ascending processing order, matching the reference's member order so
	// the cluster-wide conditional product multiplies in the same sequence.
	root := df.find(idx)
	cl := df.newCluster()
	for i := 0; i <= idx; i++ {
		if df.find(i) == root {
			cl.members = append(cl.members, i)
		}
	}
	nc := len(qc.candidates)
	cl.ga = qc.arena.alloc(nc)
	cl.z = 0
	cl.positive = false
	for ri := 0; ri < nc; ri++ {
		ga := clusterGroupAffinity(neighbors, cl.members, ri)
		cl.ga[ri] = ga
		cl.z += ga
		if ga > 0 {
			cl.positive = true
		}
	}
	if cl.z > 1 {
		cl.z = 1
	}
	df.clusters[root] = cl
}

// clusterGroupAffinity returns α({D̄_nl, d_i}, r): the cluster-wide group
// affinity for candidate room index ri (the dense form of the reference's
// clusterAffinity, same accumulation order).
func clusterGroupAffinity(neighbors []neighborInfo, members []int, ri int) float64 {
	minPair := math.Inf(1)
	condProduct := 1.0
	condI := 0.0
	for _, mi := range members {
		n := &neighbors[mi]
		if n.pairAffinity < minPair {
			minPair = n.pairAffinity
		}
		ck := n.condK[ri]
		if ck <= 0 {
			return 0
		}
		condProduct *= ck
		// cond_i over the pair's R_is: use the largest available — the
		// queried device's conditional should reflect the tightest
		// intersecting set in the cluster.
		if ci := n.condI[ri]; ci > condI {
			condI = ci
		}
	}
	if condI <= 0 {
		return 0
	}
	ga := minPair * condI * condProduct
	if ga > 1 {
		ga = 1
	}
	return ga
}
