package fine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// This file preserves the pre-optimization fine-stage kernel verbatim as an
// executable oracle. The optimized kernel in fine.go (batched affinity
// sweeps, incremental posteriors, dense room indexing, incremental D-FINE
// clustering) must produce posteriors that match this implementation to
// 1e-12; the equivalence property suite diffs against it. It is
// deliberately naive: per-pair affinity lookups, map-keyed room
// distributions (built by the map-form room affinity and label blend below),
// full per-iteration re-summation, and from-scratch clustering at every
// step.

// refNeighborInfo is the map-based neighborInfo of the reference kernel.
type refNeighborInfo struct {
	dev          event.DeviceID
	region       space.RegionID
	pairAffinity float64
	support      map[space.RoomID]float64
	condI        map[space.RoomID]float64
	condK        map[space.RoomID]float64
	sameRoomProb float64
}

// ReferenceLocate answers the same query as Locate through the pre-refactor
// reference kernel.
func (l *Localizer) ReferenceLocate(d event.DeviceID, g space.RegionID, tq time.Time) (Result, error) {
	candidates := l.building.CandidateRooms(g)
	if len(candidates) == 0 {
		return Result{}, fmt.Errorf("fine: region %s has no candidate rooms", g)
	}
	prior := l.refPriorFor(d, g, tq)

	neighbors := l.refNeighborSet(d, g, tq, prior)
	if l.orderer != nil {
		neighbors = l.refReorder(d, neighbors, tq)
	}

	var res Result
	switch l.opts.Variant {
	case Dependent:
		res = l.refLocateDependent(candidates, prior, neighbors, tq)
	default:
		res = l.refLocateIndependent(candidates, prior, neighbors)
	}
	res.TotalNeighbors = len(neighbors)

	for i := 0; i < res.ProcessedNeighbors && i < len(neighbors); i++ {
		n := neighbors[i]
		sum := 0.0
		for _, r := range candidates {
			sum += n.support[r]
		}
		res.LocalGraph = append(res.LocalGraph, LocalEdge{
			From:   d,
			To:     n.dev,
			Weight: sum / float64(len(candidates)),
		})
	}
	return res, nil
}

// refNeighborSet consults the affinity provider once per candidate — with a
// store-backed provider that means one history sweep per pair, the cost the
// batched sweep removes.
func (l *Localizer) refNeighborSet(d event.DeviceID, g space.RegionID, tq time.Time, prior map[space.RoomID]float64) []refNeighborInfo {
	window := neighborWindow
	if d2 := l.store.Delta(d); d2 > window {
		window = d2
	}
	active := l.neighbors.ActiveDevicesAt(l.building.OverlappingAPs(g), tq.Add(-window), tq.Add(window))
	candidates := l.building.CandidateRooms(g)

	var out []refNeighborInfo
	for _, dk := range active {
		if dk == d {
			continue
		}
		region, online := l.deviceRegionAt(dk, tq)
		if !online {
			continue
		}
		if !l.building.OverlappingRegions(g, region) {
			continue
		}
		pa := l.affinity.PairAffinity(d, dk, tq)
		if pa <= 0 {
			continue
		}
		n := l.refPairSupport(dk, g, region, prior, candidates, pa, tq)
		positive := false
		for _, s := range n.support {
			if s > 0 {
				positive = true
				break
			}
		}
		if !positive {
			continue
		}
		out = append(out, n)
	}
	return out
}

func (l *Localizer) refReorder(d event.DeviceID, neighbors []refNeighborInfo, tq time.Time) []refNeighborInfo {
	devs := make([]event.DeviceID, len(neighbors))
	for i, n := range neighbors {
		devs[i] = n.dev
	}
	ordered := l.orderer.OrderNeighbors(d, devs, tq)
	byDev := make(map[event.DeviceID]refNeighborInfo, len(neighbors))
	for _, n := range neighbors {
		byDev[n.dev] = n
	}
	out := make([]refNeighborInfo, 0, len(neighbors))
	for _, dev := range ordered {
		if n, ok := byDev[dev]; ok {
			out = append(out, n)
			delete(byDev, dev)
		}
	}
	for _, n := range neighbors {
		if _, left := byDev[n.dev]; left {
			out = append(out, n)
		}
	}
	return out
}

func (l *Localizer) refPairSupport(dk event.DeviceID, gd, gk space.RegionID, prior map[space.RoomID]float64, candidates []space.RoomID, pairAffinity float64, tq time.Time) refNeighborInfo {
	n := refNeighborInfo{
		dev:          dk,
		region:       gk,
		pairAffinity: pairAffinity,
		support:      make(map[space.RoomID]float64, len(candidates)),
		condI:        make(map[space.RoomID]float64, len(candidates)),
		condK:        make(map[space.RoomID]float64, len(candidates)),
	}
	ris := refIntersectCandidates(l.building, gd, gk)
	if len(ris) == 0 {
		return n
	}
	condD := ConditionalOverRooms(prior, ris)
	priorK := l.refPriorFor(dk, gk, tq)
	condK := ConditionalOverRooms(priorK, ris)
	inRis := make(map[space.RoomID]bool, len(ris))
	for _, r := range ris {
		inRis[r] = true
	}
	mass := 0.0
	for _, r := range ris {
		mass += condD[r] * condK[r]
	}
	n.sameRoomProb = pairAffinity * mass
	if n.sameRoomProb > 1 {
		n.sameRoomProb = 1
	}
	for _, r := range candidates {
		if !inRis[r] {
			continue
		}
		n.condI[r] = condD[r]
		n.condK[r] = condK[r]
		n.support[r] = GroupAffinity(pairAffinity, []float64{condD[r], condK[r]})
	}
	return n
}

func refBlendedSupport(n refNeighborInfo, r space.RoomID, prior float64) float64 {
	return n.support[r] + (1-n.sameRoomProb)*prior
}

func (l *Localizer) refLocateIndependent(candidates []space.RoomID, prior map[space.RoomID]float64, neighbors []refNeighborInfo) Result {
	blended := make(map[space.RoomID][]float64, len(candidates))
	posterior := make(map[space.RoomID]float64, len(candidates))
	for _, r := range candidates {
		posterior[r] = prior[r]
	}

	processed := 0
	stopped := false
	for idx, n := range neighbors {
		for _, r := range candidates {
			blended[r] = append(blended[r], refBlendedSupport(n, r, prior[r]))
		}
		processed = idx + 1
		for _, r := range candidates {
			posterior[r] = combinePosterior(prior[r], blended[r])
		}
		if !l.opts.UseStopConditions {
			continue
		}
		if l.refCheckStop(candidates, prior, posterior, blended, neighbors[processed:]) {
			stopped = processed < len(neighbors)
			break
		}
	}
	best := argmaxRoom(posterior, candidates)
	return Result{
		Room:               best,
		Probability:        posterior[best],
		Posterior:          posterior,
		ProcessedNeighbors: processed,
		StoppedEarly:       stopped,
	}
}

func (l *Localizer) refCheckStop(candidates []space.RoomID, prior, posterior map[space.RoomID]float64, blended map[space.RoomID][]float64, unprocessed []refNeighborInfo) bool {
	if len(candidates) < 2 {
		return true
	}
	ra, rb := top2Rooms(posterior, candidates)
	if len(unprocessed) == 0 {
		return posterior[ra] > posterior[rb]
	}
	minA := l.refBoundPosterior(ra, prior, blended, unprocessed, false)
	maxB := l.refBoundPosterior(rb, prior, blended, unprocessed, true)
	expA := posterior[ra]
	expB := posterior[rb]
	return minA > expB || expA > maxB
}

func (l *Localizer) refBoundPosterior(r space.RoomID, prior map[space.RoomID]float64, blended map[space.RoomID][]float64, unprocessed []refNeighborInfo, assumeIn bool) float64 {
	supports := make([]float64, 0, len(blended[r])+len(unprocessed))
	supports = append(supports, blended[r]...)
	for _, n := range unprocessed {
		supports = append(supports, hypoSupport(assumeIn, n.pairAffinity, n.condI[r], prior[r]))
	}
	return combinePosterior(prior[r], supports)
}

func (l *Localizer) refLocateDependent(candidates []space.RoomID, prior map[space.RoomID]float64, neighbors []refNeighborInfo, tq time.Time) Result {
	posterior := make(map[space.RoomID]float64, len(candidates))
	for _, r := range candidates {
		posterior[r] = prior[r]
	}

	processed := 0
	stopped := false
	for idx := range neighbors {
		processed = idx + 1
		active := neighbors[:processed]
		groups := l.refClusterNeighbors(active, tq)
		anyPositive := false
		gas := make([]map[space.RoomID]float64, len(groups))
		zs := make([]float64, len(groups))
		for gi, grp := range groups {
			gas[gi] = make(map[space.RoomID]float64, len(candidates))
			for _, r := range candidates {
				_, ga := refClusterAffinity(grp, r)
				gas[gi][r] = ga
				zs[gi] += ga
				if ga > 0 {
					anyPositive = true
				}
			}
			if zs[gi] > 1 {
				zs[gi] = 1
			}
		}
		for _, r := range candidates {
			blended := make([]float64, len(groups))
			for gi := range groups {
				blended[gi] = gas[gi][r] + (1-zs[gi])*prior[r]
			}
			posterior[r] = combinePosterior(prior[r], blended)
		}
		if l.opts.UseStopConditions && !anyPositive {
			stopped = processed < len(neighbors)
			break
		}
	}
	best := argmaxRoom(posterior, candidates)
	return Result{
		Room:               best,
		Probability:        posterior[best],
		Posterior:          posterior,
		ProcessedNeighbors: processed,
		StoppedEarly:       stopped,
	}
}

// refClusterNeighbors re-clusters the whole active set from scratch with a
// fresh union-find and an affinity lookup per pair — the O(n²)-per-step
// (O(n³) per query) shape the incremental clusterer replaces.
func (l *Localizer) refClusterNeighbors(active []refNeighborInfo, tq time.Time) [][]refNeighborInfo {
	n := len(active)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l.affinity.PairAffinity(active[i].dev, active[j].dev, tq) > 0 {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	byRoot := make(map[int][]refNeighborInfo)
	var roots []int
	for i, ninfo := range active {
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], ninfo)
	}
	sort.Ints(roots)
	out := make([][]refNeighborInfo, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

func refClusterAffinity(grp []refNeighborInfo, r space.RoomID) (deviceAff, groupAff float64) {
	if len(grp) == 0 {
		return 0, 0
	}
	minPair := math.Inf(1)
	condProduct := 1.0
	condI := 0.0
	for _, n := range grp {
		if n.pairAffinity < minPair {
			minPair = n.pairAffinity
		}
		ck, ok := n.condK[r]
		if !ok || ck <= 0 {
			return minAff(minPair), 0
		}
		condProduct *= ck
		if ci := n.condI[r]; ci > condI {
			condI = ci
		}
	}
	if condI <= 0 {
		return minAff(minPair), 0
	}
	ga := minPair * condI * condProduct
	if ga > 1 {
		ga = 1
	}
	return minAff(minPair), ga
}

func minAff(v float64) float64 {
	if math.IsInf(v, 1) {
		return 0
	}
	return v
}

// argmaxRoom / top2Rooms are the map-keyed argmax helpers the
// reference posterior combination uses (the optimized kernel works on dense
// indexed slices).
func argmaxRoom(m map[space.RoomID]float64, rooms []space.RoomID) space.RoomID {
	if len(rooms) == 0 {
		return ""
	}
	best := rooms[0]
	for _, r := range rooms[1:] {
		if m[r] > m[best] {
			best = r
		}
	}
	return best
}

func top2Rooms(m map[space.RoomID]float64, rooms []space.RoomID) (space.RoomID, space.RoomID) {
	ra, rb := rooms[0], rooms[0]
	first := true
	for _, r := range rooms {
		if first {
			ra = r
			first = false
			continue
		}
		if m[r] > m[ra] {
			rb = ra
			ra = r
		} else if rb == ra || m[r] > m[rb] {
			rb = r
		}
	}
	if rb == ra && len(rooms) > 1 {
		for _, r := range rooms {
			if r != ra {
				rb = r
				break
			}
		}
	}
	return ra, rb
}

// GroupAffinity computes α(D, r, t_q) per Eq. 1 for the device group D whose
// members' conditional room distributions are given. The affinity is zero
// when r is not an intersecting room of all members' candidate sets.
//
//	α(D, r, t_q) = α(D) · Π_{d∈D} P(@(d, r) | @(d, R_is))
//
// conds maps each device to its conditional probability of being in r given
// it is in one of the intersecting rooms (already normalized over R_is).
func GroupAffinity(deviceAffinity float64, conds []float64) float64 {
	if deviceAffinity <= 0 {
		return 0
	}
	p := deviceAffinity
	for _, c := range conds {
		if c <= 0 {
			return 0
		}
		p *= c
	}
	return p
}

// ConditionalOverRooms normalizes a room-affinity map over the subset rooms
// (R_is), returning P(@(d, r) | @(d, R_is)) for each r in rooms. Rooms with
// zero total mass yield a uniform distribution.
func ConditionalOverRooms(aff map[space.RoomID]float64, rooms []space.RoomID) map[space.RoomID]float64 {
	out := make(map[space.RoomID]float64, len(rooms))
	total := 0.0
	for _, r := range rooms {
		total += aff[r]
	}
	if total <= 0 {
		if len(rooms) == 0 {
			return out
		}
		u := 1.0 / float64(len(rooms))
		for _, r := range rooms {
			out[r] = u
		}
		return out
	}
	for _, r := range rooms {
		out[r] = aff[r] / total
	}
	return out
}

// refIntersectCandidates returns the sorted intersection of the candidate
// rooms of gd and gk: the R_is set of Section 4.1.
func refIntersectCandidates(b *space.Building, gd, gk space.RegionID) []space.RoomID {
	inK := make(map[space.RoomID]bool)
	for _, r := range b.CandidateRooms(gk) {
		inK[r] = true
	}
	var out []space.RoomID
	for _, r := range b.CandidateRooms(gd) {
		if inK[r] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refPriorFor is the map-form room prior the pre-optimization kernel built
// per device: the metadata room affinities at t_q, blended with the labels.
func (l *Localizer) refPriorFor(d event.DeviceID, g space.RegionID, tq time.Time) map[space.RoomID]float64 {
	prior := refRoomAffinities(l.building, l.opts.Weights, g, l.building.PreferredRoomsAt(string(d), tq))
	if l.labels != nil {
		prior = refBlend(l.labels, d, prior)
	}
	return prior
}

// refRoomAffinities computes the probability distribution over candidate
// rooms given only metadata, as a map: each class of rooms present in the
// candidate set shares its class weight uniformly, and an absent class's
// weight is redistributed proportionally.
func refRoomAffinities(b *space.Building, w Weights, g space.RegionID, preferred []space.RoomID) map[space.RoomID]float64 {
	candidates := b.CandidateRooms(g)
	if len(candidates) == 0 {
		return nil
	}
	prefSet := make(map[space.RoomID]bool)
	for _, r := range preferred {
		prefSet[r] = true
	}
	var pref, pub, priv []space.RoomID
	for _, r := range candidates {
		switch {
		case prefSet[r]:
			pref = append(pref, r)
		case b.IsPublic(r):
			pub = append(pub, r)
		default:
			priv = append(priv, r)
		}
	}
	mass := 0.0
	if len(pref) > 0 {
		mass += w.Preferred
	}
	if len(pub) > 0 {
		mass += w.Public
	}
	if len(priv) > 0 {
		mass += w.Private
	}
	out := make(map[space.RoomID]float64, len(candidates))
	if mass == 0 {
		u := 1.0 / float64(len(candidates))
		for _, r := range candidates {
			out[r] = u
		}
		return out
	}
	assign := func(rooms []space.RoomID, classWeight float64) {
		if len(rooms) == 0 {
			return
		}
		each := classWeight / mass / float64(len(rooms))
		for _, r := range rooms {
			out[r] = each
		}
	}
	assign(pref, w.Preferred)
	assign(pub, w.Public)
	assign(priv, w.Private)
	return out
}

// refBlend sharpens a map-form prior with the device's labels: α' =
// λ·empirical + (1−λ)·α with λ = n/(n+κ) over the prior's rooms. With no
// labels among them the prior is returned unchanged.
func refBlend(s *LabelStore, d event.DeviceID, prior map[space.RoomID]float64) map[space.RoomID]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	visits := s.visits[d]
	n := 0
	for r := range prior {
		n += visits[r]
	}
	if n == 0 {
		return prior
	}
	lambda := float64(n) / (float64(n) + s.Smoothing)
	out := make(map[space.RoomID]float64, len(prior))
	for r, p := range prior {
		emp := float64(visits[r]) / float64(n)
		out[r] = lambda*emp + (1-lambda)*p
	}
	return out
}
