package fine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// equivTol is the posterior tolerance the optimized kernel must hold against
// the pre-refactor reference (ISSUE acceptance: 1e-12). I-FINE is bitwise
// identical; D-FINE differs only by the floating-point reordering of the
// cluster fold, orders of magnitude below this.
const equivTol = 1e-12

// randomScene builds a randomized building, store, and localizer options for
// one equivalence trial. Devices get events inside and outside the neighbor
// window, per-device deltas, random preferred rooms, time preferences, and
// crowd labels, so every prior/affinity path is exercised.
type scene struct {
	bld  *space.Building
	st   *store.Store
	opts Options
	dev  event.DeviceID
	g    space.RegionID
	tq   time.Time
	aff  PairAffinityProvider
	ord  NeighborOrderer
	lbl  *LabelStore
}

func randomScene(t *testing.T, rng *rand.Rand) scene {
	t.Helper()
	nRooms := 3 + rng.Intn(8)
	rooms := make([]space.Room, nRooms)
	roomIDs := make([]space.RoomID, nRooms)
	for i := range rooms {
		kind := space.Private
		if rng.Float64() < 0.4 {
			kind = space.Public
		}
		id := space.RoomID(fmt.Sprintf("r%02d", i))
		rooms[i] = space.Room{ID: id, Kind: kind}
		roomIDs[i] = id
	}
	nAPs := 2 + rng.Intn(4)
	aps := make([]space.AccessPoint, nAPs)
	for i := range aps {
		cov := map[space.RoomID]bool{}
		for len(cov) < 1+rng.Intn(nRooms) {
			cov[roomIDs[rng.Intn(nRooms)]] = true
		}
		var list []space.RoomID
		for r := range cov {
			list = append(list, r)
		}
		aps[i] = space.AccessPoint{ID: space.APID(fmt.Sprintf("ap%02d", i)), Coverage: list}
	}
	nDevs := 2 + rng.Intn(12)
	prefs := map[string][]space.RoomID{}
	devs := make([]event.DeviceID, nDevs)
	for i := range devs {
		devs[i] = event.DeviceID(fmt.Sprintf("dev%02d", i))
		if rng.Float64() < 0.5 {
			prefs[string(devs[i])] = []space.RoomID{roomIDs[rng.Intn(nRooms)]}
		}
	}
	bld, err := space.NewBuilding(space.Config{
		Name:           "equiv",
		Rooms:          rooms,
		AccessPoints:   aps,
		PreferredRooms: prefs,
	})
	if err != nil {
		t.Fatal(err)
	}

	tq := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	st := store.New(0)
	var evs []event.Event
	for _, d := range devs {
		// A handful of events near tq (neighbor-window candidates) and a
		// trail of history up to 8 weeks back (affinity inputs). Some events
		// land out of order to exercise the lazy re-sort under ScanEvents.
		n := 3 + rng.Intn(30)
		for j := 0; j < n; j++ {
			var ts time.Time
			if j < 3 {
				ts = tq.Add(time.Duration(rng.Intn(90)-45) * time.Minute)
			} else {
				ts = tq.Add(-time.Duration(rng.Intn(8*7*24)) * time.Hour)
			}
			evs = append(evs, event.Event{
				Device: d,
				Time:   ts,
				AP:     aps[rng.Intn(nAPs)].ID,
			})
		}
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if rng.Float64() < 0.7 {
			if err := st.SetDelta(d, time.Duration(2+rng.Intn(30))*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}

	var lbl *LabelStore
	if rng.Float64() < 0.5 {
		lbl = NewLabelStore(float64(1 + rng.Intn(10)))
		for i := 0; i < rng.Intn(20); i++ {
			_ = lbl.Add(devs[rng.Intn(nDevs)], roomIDs[rng.Intn(nRooms)], tq)
		}
	}
	if rng.Float64() < 0.3 {
		d := devs[rng.Intn(nDevs)]
		_ = bld.SetTimePreferredRooms(string(d), []space.TimePreference{{
			StartMinute: 8 * 60, EndMinute: 12 * 60,
			Rooms: []space.RoomID{roomIDs[rng.Intn(nRooms)]},
		}})
	}

	// Half the trials use the store-backed provider (exercising the batched
	// sweep kernel against its one-pair form); half use a scripted
	// provider (exercising the per-pair fallback loop).
	var aff PairAffinityProvider
	if rng.Float64() < 0.5 {
		aff = NewStoreAffinity(st, 8*7*24*time.Hour)
	} else {
		f := fixedAffinity{}
		for i := 0; i < nDevs; i++ {
			for j := i + 1; j < nDevs; j++ {
				if rng.Float64() < 0.7 {
					f[pair(devs[i], devs[j])] = rng.Float64()
				}
			}
		}
		aff = f
	}
	var ord NeighborOrderer
	if rng.Float64() < 0.4 {
		ord = shuffleOrderer{seed: rng.Int63()}
	}

	variant := Independent
	if rng.Float64() < 0.5 {
		variant = Dependent
	}
	opts := Options{
		Variant:           variant,
		UseStopConditions: rng.Float64() < 0.5,
	}
	g, _ := bld.RegionOf(aps[rng.Intn(nAPs)].ID)
	return scene{
		bld: bld, st: st, opts: opts,
		dev: devs[rng.Intn(nDevs)], g: g, tq: tq,
		aff: aff, ord: ord, lbl: lbl,
	}
}

// shuffleOrderer deterministically permutes the neighbor set — a worst-case
// stand-in for the affinity-graph orderer that still satisfies the
// NeighborOrderer contract (returns a fresh slice).
type shuffleOrderer struct{ seed int64 }

func (o shuffleOrderer) OrderNeighbors(_ event.DeviceID, ns []event.DeviceID, _ time.Time) []event.DeviceID {
	out := make([]event.DeviceID, len(ns))
	copy(out, ns)
	rand.New(rand.NewSource(o.seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newScenePair(s scene) *Localizer {
	l := New(s.bld, s.st, s.aff, s.ord, s.opts)
	if s.lbl != nil {
		l.SetLabelStore(s.lbl)
	}
	return l
}

func diffResults(t *testing.T, seed int64, got, want Result) {
	t.Helper()
	if got.Room != want.Room {
		t.Errorf("seed %d: Room = %s, reference %s", seed, got.Room, want.Room)
	}
	if got.ProcessedNeighbors != want.ProcessedNeighbors ||
		got.TotalNeighbors != want.TotalNeighbors ||
		got.StoppedEarly != want.StoppedEarly {
		t.Errorf("seed %d: processed/total/stopped = %d/%d/%v, reference %d/%d/%v",
			seed, got.ProcessedNeighbors, got.TotalNeighbors, got.StoppedEarly,
			want.ProcessedNeighbors, want.TotalNeighbors, want.StoppedEarly)
	}
	if len(got.Posterior) != len(want.Posterior) {
		t.Fatalf("seed %d: posterior sizes %d vs %d", seed, len(got.Posterior), len(want.Posterior))
	}
	for r, p := range want.Posterior {
		if math.Abs(got.Posterior[r]-p) > equivTol {
			t.Errorf("seed %d: posterior[%s] = %.17g, reference %.17g (Δ %.3g)",
				seed, r, got.Posterior[r], p, math.Abs(got.Posterior[r]-p))
		}
	}
	if math.Abs(got.Probability-want.Probability) > equivTol {
		t.Errorf("seed %d: probability %.17g vs %.17g", seed, got.Probability, want.Probability)
	}
	if len(got.LocalGraph) != len(want.LocalGraph) {
		t.Fatalf("seed %d: local graph %d vs %d edges", seed, len(got.LocalGraph), len(want.LocalGraph))
	}
	for i, e := range want.LocalGraph {
		ge := got.LocalGraph[i]
		if ge.From != e.From || ge.To != e.To || math.Abs(ge.Weight-e.Weight) > equivTol {
			t.Errorf("seed %d: edge %d = %+v, reference %+v", seed, i, ge, e)
		}
	}
}

// TestKernelMatchesReference fuzzes randomized scenes across I-FINE/D-FINE,
// stop conditions on/off, store-backed and scripted affinity providers,
// orderers, labels, and time preferences, and checks the optimized kernel's
// answers against the preserved pre-refactor reference to 1e-12.
func TestKernelMatchesReference(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomScene(t, rng)
		l := newScenePair(s)
		want, errRef := l.ReferenceLocate(s.dev, s.g, s.tq)
		got, errNew := l.Locate(s.dev, s.g, s.tq)
		if (errRef == nil) != (errNew == nil) {
			t.Fatalf("seed %d: error mismatch: %v vs %v", seed, errNew, errRef)
		}
		if errRef != nil {
			continue
		}
		diffResults(t, seed, got, want)
		// A second run through the recycled scratch must be deterministic.
		again, err := l.Locate(s.dev, s.g, s.tq)
		if err != nil {
			t.Fatalf("seed %d: repeat: %v", seed, err)
		}
		diffResults(t, seed, again, want)
		if t.Failed() {
			t.Fatalf("seed %d: first mismatch, stopping", seed)
		}
	}
}

// TestKernelMatchesReferenceAllRegions sweeps every region of the paper
// building for every device with both variants — a dense, deterministic
// complement to the fuzz.
func TestKernelMatchesReferenceAllRegions(t *testing.T) {
	b := paperBuilding(t)
	conns := map[event.DeviceID]space.APID{"d1": "wap3", "d2": "wap4", "d3": "wap3", "d4": "wap4"}
	st := setupScene(t, b, conns)
	aff := fixedAffinity{
		pair("d1", "d2"): 0.6, pair("d1", "d3"): 0.3, pair("d1", "d4"): 0.8,
		pair("d2", "d3"): 0.5, pair("d3", "d4"): 0.2,
	}
	for _, variant := range []Variant{Independent, Dependent} {
		for _, stop := range []bool{true, false} {
			l := New(b, st, aff, nil, Options{Variant: variant, UseStopConditions: stop})
			for d := range conns {
				for _, g := range b.Regions() {
					want, err1 := l.ReferenceLocate(d, g, t0)
					got, err2 := l.Locate(d, g, t0)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("%v/%v %s@%s: error mismatch %v vs %v", variant, stop, d, g, err2, err1)
					}
					if err1 != nil {
						continue
					}
					diffResults(t, -1, got, want)
				}
			}
		}
	}
}

// TestScratchPoolConcurrentLocate hammers one shared Localizer from many
// goroutines (the LocateBatch shape) and checks every concurrent answer
// against the serial reference — under -race this doubles as the data-race
// proof for the pooled scratch and arena reuse.
func TestScratchPoolConcurrentLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s scene
	var l *Localizer
	// Find a scene with at least a few neighbors so the arena is exercised.
	for {
		s = randomScene(t, rng)
		s.opts.Variant = Dependent
		s.opts.UseStopConditions = false
		l = newScenePair(s)
		res, err := l.Locate(s.dev, s.g, s.tq)
		if err == nil && res.TotalNeighbors >= 2 {
			break
		}
	}
	type q struct {
		dev event.DeviceID
		g   space.RegionID
	}
	var queries []q
	want := map[q]Result{}
	for _, g := range s.bld.Regions() {
		qq := q{dev: s.dev, g: g}
		res, err := l.Locate(s.dev, g, s.tq)
		if err != nil {
			continue
		}
		queries = append(queries, qq)
		want[qq] = res
	}
	if len(queries) == 0 {
		t.Skip("no answerable queries in scene")
	}
	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				qq := queries[(w+rep)%len(queries)]
				res, err := l.Locate(qq.dev, qq.g, s.tq)
				if err != nil {
					errs <- fmt.Sprintf("%v: %v", qq, err)
					return
				}
				ref := want[qq]
				if res.Room != ref.Room || math.Abs(res.Probability-ref.Probability) > equivTol {
					errs <- fmt.Sprintf("%v: %s/%.17g, want %s/%.17g", qq, res.Room, res.Probability, ref.Room, ref.Probability)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
