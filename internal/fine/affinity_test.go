package fine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

var t0 = time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)

// roomAffinityMap runs roomPriorInto over R(g) at t0 and keys the answer by
// room; nil when g has no candidate rooms.
func roomAffinityMap(b *space.Building, w Weights, dev event.DeviceID, g space.RegionID) map[space.RoomID]float64 {
	rooms := b.CandidateRooms(g)
	if len(rooms) == 0 {
		return nil
	}
	vals := make([]float64, len(rooms))
	roomPriorInto(b, w, dev, rooms, t0, vals)
	out := make(map[space.RoomID]float64, len(rooms))
	for i, r := range rooms {
		out[r] = vals[i]
	}
	return out
}

// deviceAffinityOracle is α({a, b}) over [start, end] computed the plain
// way: both windows copied out of the store and swept with time.Time
// comparisons.
func deviceAffinityOracle(st *store.Store, a, b event.DeviceID, start, end time.Time) float64 {
	ea := st.EventsBetween(a, start, end)
	eb := st.EventsBetween(b, start, end)
	total := len(ea) + len(eb)
	if total == 0 {
		return 0
	}
	inter := countIntersecting(ea, eb, st.Delta(a)) + countIntersecting(eb, ea, st.Delta(b))
	return float64(inter) / float64(total)
}

// countIntersecting counts events in xs that have a same-AP event of ys
// within delta. Both inputs are sorted by time.
func countIntersecting(xs, ys []event.Event, delta time.Duration) int {
	count := 0
	j := 0
	for _, e := range xs {
		lo := e.Time.Add(-delta)
		hi := e.Time.Add(delta)
		for j < len(ys) && ys[j].Time.Before(lo) {
			j++
		}
		for k := j; k < len(ys) && !ys[k].Time.After(hi); k++ {
			if ys[k].AP == e.AP {
				count++
				break
			}
		}
	}
	return count
}

// paperBuilding reproduces the running example of Section 4: region g3 with
// candidate rooms {2059, 2061, 2065, 2069, 2099}, 2061 the preferred room
// of device d1, 2065 the only public room.
func paperBuilding(t testing.TB) *space.Building {
	t.Helper()
	b, err := space.NewBuilding(space.Config{
		Name: "paper",
		Rooms: []space.Room{
			{ID: "2059", Kind: space.Private},
			{ID: "2061", Kind: space.Private},
			{ID: "2065", Kind: space.Public},
			{ID: "2069", Kind: space.Private},
			{ID: "2099", Kind: space.Private},
			{ID: "2068", Kind: space.Private},
		},
		AccessPoints: []space.AccessPoint{
			{ID: "wap3", Coverage: []space.RoomID{"2059", "2061", "2065", "2069", "2099"}},
			{ID: "wap4", Coverage: []space.RoomID{"2065", "2069", "2099", "2068"}},
		},
		PreferredRooms: map[string][]space.RoomID{
			"d1": {"2061"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Errorf("default weights invalid: %v", err)
	}
	bad := []Weights{
		{Preferred: 0.3, Public: 0.4, Private: 0.3}, // not decreasing
		{Preferred: 0.5, Public: 0.3, Private: 0.3}, // pb == pr... still not strictly decreasing
		{Preferred: 0.6, Public: 0.3, Private: 0.2}, // sums to 1.1
		{Preferred: 0.7, Public: 0.3, Private: 0},   // zero private
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("case %d: weights %+v should be invalid", i, w)
		}
	}
}

// TestRoomAffinitiesPaperExample checks the Section 4.1 worked example:
// with w = {0.5, 0.3, 0.2}, α(d1, 2061) = 0.5, α(d1, 2065) = 0.3, and the
// three remaining private rooms share 0.2/3 ≈ 0.066.
func TestRoomAffinitiesPaperExample(t *testing.T) {
	b := paperBuilding(t)
	w := Weights{Preferred: 0.5, Public: 0.3, Private: 0.2}
	g3, _ := b.RegionOf("wap3")
	aff := roomAffinityMap(b, w, "d1", g3)

	if math.Abs(aff["2061"]-0.5) > 1e-9 {
		t.Errorf("α(d1,2061) = %v, want 0.5", aff["2061"])
	}
	if math.Abs(aff["2065"]-0.3) > 1e-9 {
		t.Errorf("α(d1,2065) = %v, want 0.3", aff["2065"])
	}
	for _, r := range []space.RoomID{"2059", "2069", "2099"} {
		if math.Abs(aff[r]-0.2/3) > 1e-9 {
			t.Errorf("α(d1,%s) = %v, want %v", r, aff[r], 0.2/3)
		}
	}
	sum := 0.0
	for _, v := range aff {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("affinities sum to %v", sum)
	}
}

func TestRoomAffinitiesNoPreferred(t *testing.T) {
	b := paperBuilding(t)
	g3, _ := b.RegionOf("wap3")
	// d2 has no preferred rooms: the preferred mass is redistributed, so
	// public + private shares renormalize to 1.
	aff := roomAffinityMap(b, DefaultWeights(), "d2", g3)
	sum := 0.0
	for _, v := range aff {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("affinities sum to %v, want 1", sum)
	}
	// Public room 2065 gets w_pb/(w_pb+w_pr) = 0.3/0.4 = 0.75.
	if math.Abs(aff["2065"]-0.75) > 1e-9 {
		t.Errorf("public affinity = %v, want 0.75", aff["2065"])
	}
}

// TestRoomAffinitiesUnknownRegion: an unknown region has no candidate
// rooms, so there is no prior to write.
func TestRoomAffinitiesUnknownRegion(t *testing.T) {
	b := paperBuilding(t)
	if rooms := b.CandidateRooms("ghost"); len(rooms) != 0 {
		t.Fatalf("unknown region has candidates %v", rooms)
	}
	roomPriorInto(b, DefaultWeights(), "d1", nil, t0, nil)
	if aff := roomAffinityMap(b, DefaultWeights(), "d1", "ghost"); aff != nil {
		t.Errorf("unknown region should yield nil, got %v", aff)
	}
}

// Property: room affinities are a probability distribution, respect the
// class ordering preferred ≥ public ≥ private per room whenever all classes
// are present, and equal the map-form reference bit for bit.
func TestRoomAffinitiesProperty(t *testing.T) {
	b := paperBuilding(t)
	g3, _ := b.RegionOf("wap3")
	f := func(a, bw, c uint8) bool {
		// Build valid random weights.
		x := 1 + float64(a%50)
		y := x + 1 + float64(bw%50)
		z := y + 1 + float64(c%50)
		total := x + y + z
		w := Weights{Preferred: z / total, Public: y / total, Private: x / total}
		if err := w.Validate(); err != nil {
			return true // numerically degenerate; skip
		}
		aff := roomAffinityMap(b, w, "d1", g3)
		for r, v := range refRoomAffinities(b, w, g3, b.PreferredRooms("d1")) {
			if aff[r] != v {
				return false
			}
		}
		sum := 0.0
		for _, v := range aff {
			if v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Per-room ordering: preferred room ≥ public room ≥ private rooms.
		return aff["2061"] >= aff["2065"] && aff["2065"] >= aff["2059"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAffinity(t *testing.T) {
	st := store.New(0)
	st.SetDelta("a", 5*time.Minute)
	st.SetDelta("b", 5*time.Minute)
	// a and b co-located on apX for 3 events each (within validity), then a
	// alone for 3 events.
	var evs []event.Event
	for i := 0; i < 3; i++ {
		ts := t0.Add(time.Duration(i) * 20 * time.Minute)
		evs = append(evs,
			event.Event{Device: "a", Time: ts, AP: "apX"},
			event.Event{Device: "b", Time: ts.Add(time.Minute), AP: "apX"},
		)
	}
	for i := 0; i < 3; i++ {
		evs = append(evs, event.Event{Device: "a", Time: t0.Add(5*time.Hour + time.Duration(i)*20*time.Minute), AP: "apY"})
	}
	st.Ingest(evs)

	p := NewStoreAffinity(st, 11*time.Hour)
	aff := p.PairAffinity("a", "b", t0.Add(10*time.Hour))
	// Intersecting: 3 of a's events + 3 of b's events = 6; total = 9.
	want := 6.0 / 9.0
	if math.Abs(aff-want) > 1e-9 {
		t.Errorf("device affinity = %v, want %v", aff, want)
	}
	// Empty history → 0.
	if got := NewStoreAffinity(st, time.Hour).PairAffinity("a", "b", t0.Add(-9*time.Hour)); got != 0 {
		t.Errorf("empty-window affinity = %v", got)
	}
	// Symmetric.
	rev := p.PairAffinity("b", "a", t0.Add(10*time.Hour))
	if math.Abs(aff-rev) > 1e-9 {
		t.Errorf("affinity not symmetric: %v vs %v", aff, rev)
	}
}

func TestDeviceAffinityDifferentAPsDontCount(t *testing.T) {
	st := store.New(0)
	st.SetDelta("a", 5*time.Minute)
	st.SetDelta("b", 5*time.Minute)
	st.Ingest([]event.Event{
		{Device: "a", Time: t0, AP: "apX"},
		{Device: "b", Time: t0.Add(time.Minute), AP: "apY"},
	})
	if got := NewStoreAffinity(st, 2*time.Hour).PairAffinity("a", "b", t0.Add(time.Hour)); got != 0 {
		t.Errorf("different-AP events should not intersect: %v", got)
	}
}

// TestGroupAffinityPaperExample reproduces the Section 4.1 numeric example:
// α({d1,d2}) = 0.4, P(@(d1,2065)|Ris) = 0.69..., P(@(d2,2065)|Ris) = 0.44,
// giving α({d1,d2}, 2065) ≈ 0.12.
func TestGroupAffinityPaperExample(t *testing.T) {
	condD1 := 0.3 / (0.3 + 0.06 + 0.06)
	condD2 := 0.4 / (0.4 + 0.01 + 0.5)
	got := GroupAffinity(0.4, []float64{condD1, condD2})
	if math.Abs(got-0.4*condD1*condD2) > 1e-12 {
		t.Errorf("group affinity = %v", got)
	}
	if math.Abs(got-0.121) > 0.005 {
		t.Errorf("group affinity = %v, want ≈ 0.12 (paper)", got)
	}
}

func TestGroupAffinityZeroCases(t *testing.T) {
	if GroupAffinity(0, []float64{0.5}) != 0 {
		t.Error("zero device affinity → zero group affinity")
	}
	if GroupAffinity(0.5, []float64{0.5, 0}) != 0 {
		t.Error("zero conditional → zero group affinity")
	}
}

func TestConditionalOverRooms(t *testing.T) {
	aff := map[space.RoomID]float64{"a": 0.3, "b": 0.06, "c": 0.06, "d": 0.5}
	ris := []space.RoomID{"a", "b", "c"}
	cond := ConditionalOverRooms(aff, ris)
	if math.Abs(cond["a"]-0.3/0.42) > 1e-9 {
		t.Errorf("cond[a] = %v", cond["a"])
	}
	sum := 0.0
	for _, r := range ris {
		sum += cond[r]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("conditional sums to %v", sum)
	}
	// Zero-mass set → uniform.
	cond = ConditionalOverRooms(map[space.RoomID]float64{}, ris)
	for _, r := range ris {
		if math.Abs(cond[r]-1.0/3) > 1e-9 {
			t.Errorf("uniform fallback broken: %v", cond)
		}
	}
	// Empty room set → empty result.
	if got := ConditionalOverRooms(aff, nil); len(got) != 0 {
		t.Errorf("empty rooms should give empty conditionals: %v", got)
	}
}

// Property: conditional distributions always sum to 1 over their support.
func TestConditionalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		aff := map[space.RoomID]float64{}
		var rooms []space.RoomID
		for i := 0; i < n; i++ {
			r := space.RoomID(string(rune('a' + i)))
			rooms = append(rooms, r)
			aff[r] = rng.Float64()
		}
		cond := ConditionalOverRooms(aff, rooms)
		sum := 0.0
		for _, r := range rooms {
			if cond[r] < 0 || cond[r] > 1+1e-9 {
				return false
			}
			sum += cond[r]
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAffinityProvider(t *testing.T) {
	st := store.New(0)
	st.SetDelta("a", 5*time.Minute)
	st.SetDelta("b", 5*time.Minute)
	st.Ingest([]event.Event{
		{Device: "a", Time: t0, AP: "apX"},
		{Device: "b", Time: t0.Add(time.Minute), AP: "apX"},
	})
	p := NewStoreAffinity(st, 24*time.Hour)
	if got := p.PairAffinity("a", "b", t0.Add(time.Hour)); got <= 0 {
		t.Errorf("provider affinity = %v, want > 0", got)
	}
	// Outside the window → 0.
	if got := p.PairAffinity("a", "b", t0.Add(48*time.Hour)); got != 0 {
		t.Errorf("stale affinity = %v, want 0", got)
	}
}

// TestStoreAffinityMatchesOracle: the store-backed provider's one-pair and
// batched answers equal the plain two-copy sweep bit for bit over random
// logs — ingested out of order, partly sealed into segments, with per-device
// δ, and with pairs where one side or both have no events in the window.
func TestStoreAffinityMatchesOracle(t *testing.T) {
	aps := []space.APID{"ap1", "ap2", "ap3"}
	positive := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := store.New(0)
		if rng.Intn(2) == 0 {
			if err := st.ConfigureSegments(store.SegmentConfig{MaxEvents: 2 + rng.Intn(6)}); err != nil {
				t.Fatal(err)
			}
		}
		nDevs := 3 + rng.Intn(5)
		devs := make([]event.DeviceID, nDevs+1)
		for i := range devs {
			devs[i] = event.DeviceID(fmt.Sprintf("d%d", i))
		}
		// devs[nDevs] never logs an event.
		for _, d := range devs[:nDevs] {
			if rng.Intn(3) > 0 {
				if err := st.SetDelta(d, time.Duration(1+rng.Intn(20))*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
		}
		var evs []event.Event
		for i := 0; i < 40+rng.Intn(120); i++ {
			evs = append(evs, event.Event{
				Device: devs[rng.Intn(nDevs)],
				Time:   t0.Add(time.Duration(rng.Intn(12*60)) * time.Minute),
				AP:     aps[rng.Intn(len(aps))],
			})
		}
		// Ingest in a few shuffled batches, so later batches land before
		// events already sealed.
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		for len(evs) > 0 {
			n := 1 + rng.Intn(len(evs))
			if _, err := st.Ingest(evs[:n]); err != nil {
				t.Fatal(err)
			}
			evs = evs[n:]
		}
		window := time.Duration(1+rng.Intn(16)) * time.Hour
		p := NewStoreAffinity(st, window)
		for q := 0; q < 10; q++ {
			ref := t0.Add(time.Duration(rng.Intn(16*60)) * time.Minute)
			d := devs[rng.Intn(len(devs))]
			batch := p.(BatchPairAffinityProvider).BatchPairAffinity(d, devs, ref, nil)
			for i, c := range devs {
				want := deviceAffinityOracle(st, d, c, ref.Add(-window), ref)
				if got := p.PairAffinity(d, c, ref); got != want {
					t.Fatalf("seed %d: PairAffinity(%s, %s, %v) = %v, oracle %v", seed, d, c, ref, got, want)
				}
				if batch[i] != want {
					t.Fatalf("seed %d: batch[%s] with %s at %v = %v, oracle %v", seed, c, d, ref, batch[i], want)
				}
				if want > 0 && want < 1 {
					positive++
				}
			}
		}
	}
	if positive < 100 {
		t.Errorf("only %d pairs had an affinity strictly between 0 and 1; the logs are too sparse to test the sweep", positive)
	}
}
