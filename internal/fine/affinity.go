// Package fine implements LOCATER's fine-grained localization: the location
// disambiguation stage (paper Section 4). Given a device localized to a
// region g_x at time t_q, it selects the specific room r ∈ R(g_x) by
// combining:
//
//   - room affinity α(d, r, t_q): the prior chance of d being in room r
//     given its region, computed from space metadata (preferred rooms,
//     public/private room types) with weights w^pf > w^pb > w^pr;
//   - device affinity α(D): the fraction of historical connectivity events
//     in which the devices of D were connected to the same AP within each
//     other's validity intervals;
//   - group affinity α(D, r, t_q) (Eq. 1): the probability of the whole
//     group being co-located in r, zero outside the intersecting rooms R_is.
//
// The iterative localization algorithm (Algorithm 2) processes neighbor
// devices one at a time, maintaining the posterior of every candidate room
// and stopping early via the min/max/expected probability bounds of
// Theorems 1–3 (independent variant, I-FINE) or via affinity clusters
// (dependent variant, D-FINE, Eq. 6).
package fine

import (
	"fmt"
	"sync"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// Weights are the room-affinity weights (w^pf, w^pb, w^pr) assigned to a
// device's preferred rooms, to public rooms, and to private rooms within the
// candidate set. Validity requires w^pf > w^pb > w^pr and a sum of 1
// (paper Section 4.1).
type Weights struct {
	Preferred float64 // w^pf
	Public    float64 // w^pb
	Private   float64 // w^pr
}

// DefaultWeights returns C2 = {0.6, 0.3, 0.1}, the paper's best-performing
// combination (Table 2).
func DefaultWeights() Weights { return Weights{Preferred: 0.6, Public: 0.3, Private: 0.1} }

// Validate checks the two conditions of Section 4.1.
func (w Weights) Validate() error {
	if !(w.Preferred > w.Public && w.Public > w.Private) {
		return fmt.Errorf("fine: weights must satisfy w^pf > w^pb > w^pr, got %+v", w)
	}
	if w.Private <= 0 {
		return fmt.Errorf("fine: weights must be positive, got %+v", w)
	}
	sum := w.Preferred + w.Public + w.Private
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("fine: weights must sum to 1, got %.6f", sum)
	}
	return nil
}

// roomPriorInto writes the room affinity α(dev, r, t_q) of every room r in
// rooms into vals (parallel to rooms): the prior chance of dev being in r
// given only space metadata and the preferred rooms in effect at t_q
// (time-scoped preferences override the static set — e.g. the break room
// during lunch, the office otherwise).
//
// Each class of rooms present in rooms shares its class weight uniformly:
// the preferred rooms split w^pf, the public non-preferred rooms split w^pb,
// and the private non-preferred rooms split w^pr. Weight belonging to an
// absent class is redistributed proportionally so the affinities always sum
// to 1 (paper example, Section 4.1).
func roomPriorInto(b *space.Building, w Weights, dev event.DeviceID, rooms []space.RoomID, tq time.Time, vals []float64) {
	prefs := b.PreferredRoomsAt(string(dev), tq)
	nPref, nPub, nPriv := 0, 0, 0
	for _, r := range rooms {
		switch {
		case roomInSorted(prefs, r):
			nPref++
		case b.IsPublic(r):
			nPub++
		default:
			nPriv++
		}
	}
	mass := 0.0
	if nPref > 0 {
		mass += w.Preferred
	}
	if nPub > 0 {
		mass += w.Public
	}
	if nPriv > 0 {
		mass += w.Private
	}
	if mass == 0 {
		// Unreachable with valid weights, but keep a uniform fallback.
		u := 1.0 / float64(len(rooms))
		for i := range vals {
			vals[i] = u
		}
		return
	}
	for i, r := range rooms {
		switch {
		case roomInSorted(prefs, r):
			vals[i] = w.Preferred / mass / float64(nPref)
		case b.IsPublic(r):
			vals[i] = w.Public / mass / float64(nPub)
		default:
			vals[i] = w.Private / mass / float64(nPriv)
		}
	}
}

// affinitySweep is the pooled scratch of one batched affinity sweep: the
// single copy of the queried device's history window (the neighbors'
// windows themselves are visited zero-copy under the store's shared lock).
type affinitySweep struct {
	dRecs []event.Rec
}

var affinitySweepPool = sync.Pool{New: func() any { return new(affinitySweep) }}

// BatchDeviceAffinity computes α({d, c}) for every candidate device c in one
// sweep over the history window [start, end]. The queried device's window is
// copied once (into a pooled buffer) instead of once per pair, and each
// candidate's window is visited in place via store.ScanEvents — so a query
// with N neighbors costs one copy plus N zero-copy scans. The windows are
// the store's records: times as Unix nanoseconds and APs as store-wide
// ordinals, so the sweep compares integers only.
//
// α({d, c}) is the device affinity of Section 4.1: the fraction of the
// pair's events in the window that are "intersecting" — the other device
// logged an event at the same AP within the event's δ — among all events of
// the pair. Results are written into out[:len(cands)] (grown as needed).
func BatchDeviceAffinity(st *store.Store, d event.DeviceID, cands []event.DeviceID, start, end time.Time, out []float64) []float64 {
	out = growFloats(out, len(cands))
	if len(cands) == 0 {
		return out
	}
	sw := affinitySweepPool.Get().(*affinitySweep)
	defer func() {
		sw.dRecs = sw.dRecs[:0]
		affinitySweepPool.Put(sw)
	}()
	var dDelta time.Duration
	st.ScanEvents(d, start, end, func(recs []event.Rec, _ []space.APID, delta time.Duration) {
		sw.dRecs = append(sw.dRecs[:0], recs...)
		dDelta = delta
	})
	for i, c := range cands {
		aff := 0.0
		st.ScanEvents(c, start, end, func(recs []event.Rec, _ []space.APID, delta time.Duration) {
			total := len(sw.dRecs) + len(recs)
			if total == 0 {
				return
			}
			inter := countIntersectingRecs(sw.dRecs, recs, dDelta) + countIntersectingRecs(recs, sw.dRecs, delta)
			aff = float64(inter) / float64(total)
		})
		out[i] = aff
	}
	return out
}

// countIntersectingRecs counts records in xs that have a same-AP record of ys
// within delta (both sorted by time, APs as ordinals of one dictionary).
// Two-pointer sweep: O(n+m) amortized per event window.
func countIntersectingRecs(xs, ys []event.Rec, delta time.Duration) int {
	d := int64(delta)
	count := 0
	j := 0
	for i := range xs {
		lo := xs[i].Nanos - d
		hi := xs[i].Nanos + d
		for j < len(ys) && ys[j].Nanos < lo {
			j++
		}
		for k := j; k < len(ys) && ys[k].Nanos <= hi; k++ {
			if ys[k].AP == xs[i].AP {
				count++
				break
			}
		}
	}
	return count
}

// growFloats returns a zeroed slice of length n, reusing out's backing array
// when it is large enough.
func growFloats(out []float64, n int) []float64 {
	if cap(out) < n {
		return make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	return out
}

// PairAffinityProvider supplies pairwise device affinities α({a, b}). The
// fine localizer computes them from the store by default; the caching engine
// substitutes a cached provider (affgraph.CachedAffinity).
//
// Contract for caching implementations: affinities derive from mutable
// history — connectivity events and per-device δs — so a provider that
// memoizes answers must expose an invalidation hook and the system must
// call it after every write that changes those inputs (Ingest, SetDelta,
// EstimateDeltas). The provider must also be safe for concurrent use: the
// fine stage calls PairAffinity from every in-flight query.
type PairAffinityProvider interface {
	// PairAffinity returns α({a, b}) over history ending at ref.
	PairAffinity(a, b event.DeviceID, ref time.Time) float64
}

// BatchPairAffinityProvider is the batched companion of
// PairAffinityProvider: one call answers α({d, c}) for every candidate c,
// letting the provider fetch the shared device d's history once and sweep
// the candidates in a single pass. Results must equal len(cands) per-pair
// PairAffinity calls; out is a caller-owned scratch slice the provider may
// reuse (the returned slice has length len(cands)).
//
// The fine localizer probes for this interface on its provider and falls
// back to a per-pair loop when absent, so scripted test providers need not
// implement it.
type BatchPairAffinityProvider interface {
	BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64
}

// storeAffinity computes pairwise affinities directly from the store over a
// fixed-length history window.
type storeAffinity struct {
	st     *store.Store
	window time.Duration
}

// NewStoreAffinity returns a PairAffinityProvider that scans the store over
// a history window of the given length (ending at the reference time).
func NewStoreAffinity(st *store.Store, window time.Duration) PairAffinityProvider {
	return &storeAffinity{st: st, window: window}
}

// PairAffinity answers one pair through the batched sweep kernel.
func (s *storeAffinity) PairAffinity(a, b event.DeviceID, ref time.Time) float64 {
	var out [1]float64
	return BatchDeviceAffinity(s.st, a, []event.DeviceID{b}, ref.Add(-s.window), ref, out[:0])[0]
}

// BatchPairAffinity implements BatchPairAffinityProvider via the batched
// sweep kernel: device d's window is copied once, candidates are scanned in
// place.
func (s *storeAffinity) BatchPairAffinity(d event.DeviceID, cands []event.DeviceID, ref time.Time, out []float64) []float64 {
	return BatchDeviceAffinity(s.st, d, cands, ref.Add(-s.window), ref, out)
}
