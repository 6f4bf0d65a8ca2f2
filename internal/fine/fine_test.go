package fine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// fixedAffinity is a PairAffinityProvider with scripted values.
type fixedAffinity map[[2]event.DeviceID]float64

func (f fixedAffinity) PairAffinity(a, b event.DeviceID, _ time.Time) float64 {
	if a > b {
		a, b = b, a
	}
	return f[[2]event.DeviceID{a, b}]
}

func pair(a, b event.DeviceID) [2]event.DeviceID {
	if a > b {
		a, b = b, a
	}
	return [2]event.DeviceID{a, b}
}

// setupScene ingests d1 connected to wap3 and any scripted neighbors
// connected to their APs at t0, with δ = 10 minutes.
func setupScene(t testing.TB, b *space.Building, conns map[event.DeviceID]space.APID) *store.Store {
	t.Helper()
	st := store.New(0)
	for d, ap := range conns {
		if _, err := st.Ingest([]event.Event{{Device: d, Time: t0, AP: ap}}); err != nil {
			t.Fatal(err)
		}
		if err := st.SetDelta(d, 10*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestLocateNoNeighborsFallsBackToPrior(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{"d1": "wap3"})
	l := New(b, st, fixedAffinity{}, nil, Options{UseStopConditions: true})
	g3, _ := b.RegionOf("wap3")

	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	// With no neighbors the posterior is the room-affinity prior: the
	// preferred room 2061 wins.
	if res.Room != "2061" {
		t.Errorf("room = %s, want preferred 2061", res.Room)
	}
	if res.TotalNeighbors != 0 || res.ProcessedNeighbors != 0 {
		t.Errorf("neighbors = %d/%d, want 0/0", res.ProcessedNeighbors, res.TotalNeighbors)
	}
	if math.Abs(res.Probability-0.6) > 1e-9 {
		t.Errorf("probability = %v, want prior 0.6", res.Probability)
	}
}

func TestLocateUnknownRegion(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{"d1": "wap3"})
	l := New(b, st, fixedAffinity{}, nil, Options{})
	if _, err := l.Locate("d1", "ghost", t0); err == nil {
		t.Error("unknown region should error")
	}
}

// TestNeighborBoostsSharedRoom reproduces the paper's Fig. 3 narrative: a
// strongly-affine neighbor in an overlapping region raises the posterior of
// the shared public room.
func TestNeighborBoostsSharedRoom(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "wap3",
		"d2": "wap4",
	})
	aff := fixedAffinity{pair("d1", "d2"): 0.9}
	l := New(b, st, aff, nil, Options{UseStopConditions: true})
	g3, _ := b.RegionOf("wap3")

	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNeighbors != 1 {
		t.Fatalf("neighbors = %d, want 1", res.TotalNeighbors)
	}
	// The posterior of the shared public room 2065 (in Ris of wap3∩wap4)
	// must rise above its prior 0.3.
	noNeighbor := New(b, setupScene(t, b, map[event.DeviceID]space.APID{"d1": "wap3"}),
		fixedAffinity{}, nil, Options{UseStopConditions: true})
	base, err := noNeighbor.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior["2065"] <= base.Posterior["2065"] {
		t.Errorf("neighbor should boost 2065: %v vs %v", res.Posterior["2065"], base.Posterior["2065"])
	}
}

func TestNeighborFilteredByRegionOverlap(t *testing.T) {
	// A building whose two APs share no rooms: devices there are never
	// neighbors regardless of affinity.
	b, err := space.NewBuilding(space.Config{
		Rooms: []space.Room{{ID: "x1"}, {ID: "x2"}, {ID: "y1"}, {ID: "y2"}},
		AccessPoints: []space.AccessPoint{
			{ID: "apX", Coverage: []space.RoomID{"x1", "x2"}},
			{ID: "apY", Coverage: []space.RoomID{"y1", "y2"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "apX",
		"d2": "apY",
	})
	l := New(b, st, fixedAffinity{pair("d1", "d2"): 0.9}, nil, Options{})
	gX, _ := b.RegionOf("apX")
	res, err := l.Locate("d1", gX, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNeighbors != 0 {
		t.Errorf("non-overlapping device counted as neighbor: %d", res.TotalNeighbors)
	}
}

func TestNeighborFilteredByZeroAffinity(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "wap3",
		"d2": "wap4",
	})
	l := New(b, st, fixedAffinity{}, nil, Options{}) // no affinity entries → 0
	g3, _ := b.RegionOf("wap3")
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalNeighbors != 0 {
		t.Errorf("zero-affinity device counted as neighbor: %d", res.TotalNeighbors)
	}
}

func TestVariantString(t *testing.T) {
	if Independent.String() != "I-FINE" || Dependent.String() != "D-FINE" {
		t.Errorf("variant names: %s / %s", Independent, Dependent)
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should render")
	}
}

func TestStopConditionsReduceWork(t *testing.T) {
	b := paperBuilding(t)
	conns := map[event.DeviceID]space.APID{"d1": "wap3"}
	aff := fixedAffinity{}
	var names []event.DeviceID
	for i := 0; i < 12; i++ {
		d := event.DeviceID("n" + string(rune('a'+i)))
		names = append(names, d)
		conns[d] = "wap3"
		aff[pair("d1", d)] = 0.02 // weak neighbors: early stop should fire
	}
	st := setupScene(t, b, conns)
	g3, _ := b.RegionOf("wap3")

	withStop := New(b, st, aff, nil, Options{UseStopConditions: true})
	res1, err := withStop.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	withoutStop := New(b, st, aff, nil, Options{UseStopConditions: false})
	res2, err := withoutStop.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ProcessedNeighbors != res2.TotalNeighbors {
		t.Errorf("without stop conditions all neighbors must be processed: %d/%d",
			res2.ProcessedNeighbors, res2.TotalNeighbors)
	}
	if res1.ProcessedNeighbors >= res2.ProcessedNeighbors {
		t.Errorf("stop conditions did not reduce work: %d vs %d",
			res1.ProcessedNeighbors, res2.ProcessedNeighbors)
	}
	if res1.Room != res2.Room {
		t.Errorf("early stop changed the answer: %s vs %s", res1.Room, res2.Room)
	}
	_ = names
}

func TestDependentClustersMatchPaperFigure4(t *testing.T) {
	// Fig. 4(b): neighbors {d2,d3,d4} form one cluster, {d5,d6} another.
	b := paperBuilding(t)
	conns := map[event.DeviceID]space.APID{"d1": "wap3"}
	for _, d := range []event.DeviceID{"d2", "d3", "d4", "d5", "d6"} {
		conns[d] = "wap3"
	}
	st := setupScene(t, b, conns)
	aff := fixedAffinity{
		pair("d1", "d2"): 0.5, pair("d1", "d3"): 0.5, pair("d1", "d4"): 0.5,
		pair("d1", "d5"): 0.5, pair("d1", "d6"): 0.5,
		pair("d2", "d3"): 0.4, pair("d3", "d4"): 0.4,
		pair("d5", "d6"): 0.4,
	}
	l := New(b, st, aff, nil, Options{Variant: Dependent})

	var infos []neighborInfo
	for _, d := range []event.DeviceID{"d2", "d3", "d4", "d5", "d6"} {
		infos = append(infos, neighborInfo{dev: d, pairAffinity: 0.5})
	}
	groups := l.clusterNeighbors(infos, t0)
	if len(groups) != 2 {
		t.Fatalf("got %d clusters, want 2", len(groups))
	}
	sizes := []int{len(groups[0]), len(groups[1])}
	if !(sizes[0] == 3 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 3) {
		t.Errorf("cluster sizes = %v, want {3,2}", sizes)
	}
}

func TestDependentVariantAnswers(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "wap3", "d2": "wap3", "d3": "wap3",
	})
	aff := fixedAffinity{
		pair("d1", "d2"): 0.6,
		pair("d1", "d3"): 0.6,
		pair("d2", "d3"): 0.8, // d2, d3 cluster together
	}
	l := New(b, st, aff, nil, Options{Variant: Dependent, UseStopConditions: true})
	g3, _ := b.RegionOf("wap3")
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Room == "" {
		t.Fatal("no room answered")
	}
	// Posteriors must be valid probabilities.
	for r, p := range res.Posterior {
		if p < 0 || p > 1 {
			t.Errorf("posterior[%s] = %v out of range", r, p)
		}
	}
}

func TestLocalGraphEdges(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "wap3", "d2": "wap3",
	})
	aff := fixedAffinity{pair("d1", "d2"): 0.7}
	l := New(b, st, aff, nil, Options{UseStopConditions: false})
	g3, _ := b.RegionOf("wap3")
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LocalGraph) != 1 {
		t.Fatalf("local graph edges = %d, want 1", len(res.LocalGraph))
	}
	e := res.LocalGraph[0]
	if e.From != "d1" || e.To != "d2" {
		t.Errorf("edge = %v", e)
	}
	// Weight = Σ_r α({d1,d2},r)/|R(g3)| must be positive and ≤ affinity.
	if e.Weight <= 0 || e.Weight > 0.7 {
		t.Errorf("edge weight = %v", e.Weight)
	}
}

// orderRecorder verifies the NeighborOrderer is consulted.
type orderRecorder struct {
	called bool
	swap   bool
}

func (o *orderRecorder) OrderNeighbors(d event.DeviceID, ns []event.DeviceID, _ time.Time) []event.DeviceID {
	o.called = true
	out := make([]event.DeviceID, len(ns))
	copy(out, ns)
	if o.swap && len(out) >= 2 {
		out[0], out[1] = out[1], out[0]
	}
	return out
}

func TestNeighborOrdererUsed(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{
		"d1": "wap3", "n1": "wap3", "n2": "wap3",
	})
	aff := fixedAffinity{pair("d1", "n1"): 0.4, pair("d1", "n2"): 0.4}
	rec := &orderRecorder{swap: true}
	l := New(b, st, aff, rec, Options{UseStopConditions: false})
	g3, _ := b.RegionOf("wap3")
	if _, err := l.Locate("d1", g3, t0); err != nil {
		t.Fatal(err)
	}
	if !rec.called {
		t.Error("orderer was not consulted")
	}
}

func TestCoarseResolverUsedForGapNeighbors(t *testing.T) {
	b := paperBuilding(t)
	st := store.New(0)
	st.SetDelta("d1", 10*time.Minute)
	st.SetDelta("dg", 10*time.Minute)
	// d1 connected now; dg has events before and after t0 forming a gap
	// containing t0 (events at -40m and +40m, δ=10m).
	st.Ingest([]event.Event{
		{Device: "d1", Time: t0, AP: "wap3"},
		{Device: "dg", Time: t0.Add(-40 * time.Minute), AP: "wap4"},
		{Device: "dg", Time: t0.Add(40 * time.Minute), AP: "wap4"},
	})
	aff := fixedAffinity{pair("d1", "dg"): 0.8}
	l := New(b, st, aff, nil, Options{UseStopConditions: false})
	g4, _ := b.RegionOf("wap4")
	resolved := false
	l.SetCoarseResolver(func(d event.DeviceID, tq time.Time) (space.RegionID, bool) {
		if d == "dg" {
			resolved = true
			return g4, true
		}
		return "", false
	})
	g3, _ := b.RegionOf("wap3")
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if !resolved {
		t.Error("coarse resolver not consulted for gap neighbor")
	}
	if res.TotalNeighbors != 1 {
		t.Errorf("gap neighbor not counted: %d", res.TotalNeighbors)
	}
}

// --- posterior math properties -------------------------------------------

func TestCombinePosteriorIdentities(t *testing.T) {
	// No evidence → prior.
	if got := combinePosterior(0.3, nil); got != 0.3 {
		t.Errorf("no evidence: %v", got)
	}
	// Evidence equal to prior → prior (uninformative).
	got := combinePosterior(0.3, []float64{0.3, 0.3})
	if math.Abs(got-0.3) > 1e-9 {
		t.Errorf("uninformative evidence moved posterior: %v", got)
	}
	// Supportive evidence raises, contrary evidence lowers.
	up := combinePosterior(0.3, []float64{0.8})
	down := combinePosterior(0.3, []float64{0.05})
	if !(up > 0.3 && down < 0.3) {
		t.Errorf("evidence direction wrong: up=%v down=%v", up, down)
	}
}

// Property: combinePosterior stays in [0,1] and is monotone in each
// support.
func TestCombinePosteriorMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prior := 0.05 + 0.9*rng.Float64()
		n := 1 + rng.Intn(6)
		supports := make([]float64, n)
		for i := range supports {
			supports[i] = rng.Float64()
		}
		p := combinePosterior(prior, supports)
		if p < 0 || p > 1 || math.IsNaN(p) {
			return false
		}
		// Raising one support must not lower the posterior.
		i := rng.Intn(n)
		raised := make([]float64, n)
		copy(raised, supports)
		raised[i] = supports[i] + (1-supports[i])*rng.Float64()
		p2 := combinePosterior(prior, raised)
		return p2+1e-12 >= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorems 1–3): minP ≤ expP ≤ maxP for the hypothetical-world
// bounds built from hypoSupport.
func TestBoundsOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		prior := 0.05 + 0.9*rng.Float64()
		nProcessed := rng.Intn(4)
		nUnprocessed := 1 + rng.Intn(5)
		processed := make([]float64, nProcessed)
		for i := range processed {
			processed[i] = rng.Float64()
		}
		expP := combinePosterior(prior, processed)

		maxSupports := append([]float64{}, processed...)
		minSupports := append([]float64{}, processed...)
		for i := 0; i < nUnprocessed; i++ {
			a := rng.Float64()
			condI := rng.Float64()
			maxSupports = append(maxSupports, hypoSupport(true, a, condI, prior))
			minSupports = append(minSupports, hypoSupport(false, a, condI, prior))
		}
		maxP := combinePosterior(prior, maxSupports)
		minP := combinePosterior(prior, minSupports)
		return minP <= expP+1e-9 && expP <= maxP+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHypoSupportMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()
		condI := rng.Float64()
		prior := 0.05 + 0.9*rng.Float64()
		in := hypoSupport(true, a, condI, prior)
		out := hypoSupport(false, a, condI, prior)
		return in+1e-12 >= out && in >= 0 && in <= 1 && out >= 0 && out <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTop2Rooms(t *testing.T) {
	rooms := []space.RoomID{"a", "b", "c"}
	m := map[space.RoomID]float64{"a": 0.2, "b": 0.5, "c": 0.3}
	ra, rb := top2Rooms(m, rooms)
	if ra != "b" || rb != "c" {
		t.Errorf("top2 = %s, %s", ra, rb)
	}
	// Single room: rb falls back to a different room when available.
	ra, rb = top2Rooms(map[space.RoomID]float64{"a": 1}, []space.RoomID{"a"})
	if ra != "a" {
		t.Errorf("single-room top = %s", ra)
	}
	_ = rb
}

func TestLogitSigmoidInverse(t *testing.T) {
	for _, p := range []float64{0.01, 0.2, 0.5, 0.77, 0.99} {
		if got := sigmoid(logit(p)); math.Abs(got-p) > 1e-9 {
			t.Errorf("sigmoid(logit(%v)) = %v", p, got)
		}
	}
	// Clamped extremes stay finite.
	if v := logit(0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("logit(0) = %v", v)
	}
	if v := logit(1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("logit(1) = %v", v)
	}
}
