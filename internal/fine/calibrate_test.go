package fine

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

func TestLabelStoreValidation(t *testing.T) {
	s := NewLabelStore(0)
	if s.Smoothing != 8 {
		t.Errorf("default smoothing = %v, want 8", s.Smoothing)
	}
	if err := s.Add("", "r", t0); err == nil {
		t.Error("empty device should fail")
	}
	if err := s.Add("d", "", t0); err == nil {
		t.Error("empty room should fail")
	}
	if err := s.Add("d", "r", t0); err != nil {
		t.Fatal(err)
	}
	if got := s.Count("d", "r"); got != 1 {
		t.Errorf("count = %d", got)
	}
	if got := s.Count("d", "other"); got != 0 {
		t.Errorf("missing count = %d", got)
	}
	devs := s.Devices()
	if len(devs) != 1 || devs[0] != "d" {
		t.Errorf("devices = %v", devs)
	}
}

// blendMap runs BlendDense over a map-form prior (rooms in sorted order) and
// keys the sharpened answer by room.
func blendMap(s *LabelStore, d event.DeviceID, prior map[space.RoomID]float64) map[space.RoomID]float64 {
	rooms := make([]space.RoomID, 0, len(prior))
	for r := range prior {
		rooms = append(rooms, r)
	}
	slices.Sort(rooms)
	vals := make([]float64, len(rooms))
	for i, r := range rooms {
		vals[i] = prior[r]
	}
	s.BlendDense(d, rooms, vals)
	out := make(map[space.RoomID]float64, len(rooms))
	for i, r := range rooms {
		out[r] = vals[i]
	}
	return out
}

func TestLabelStoreBlend(t *testing.T) {
	s := NewLabelStore(4)
	prior := map[space.RoomID]float64{"a": 0.6, "b": 0.3, "c": 0.1}

	// No labels → the prior is left unchanged.
	out := blendMap(s, "d", prior)
	if out["a"] != 0.6 {
		t.Errorf("no-label blend changed prior: %v", out)
	}

	// Labels concentrated on "c" shift the blended distribution toward it.
	for i := 0; i < 12; i++ {
		s.Add("d", "c", t0)
	}
	out = blendMap(s, "d", prior)
	if out["c"] <= prior["c"] {
		t.Errorf("labels did not raise c: %v", out["c"])
	}
	if out["a"] >= prior["a"] {
		t.Errorf("labels did not lower a: %v", out["a"])
	}
	// λ = 12/(12+4) = 0.75: c = 0.75·1 + 0.25·0.1 = 0.775.
	if math.Abs(out["c"]-0.775) > 1e-9 {
		t.Errorf("c = %v, want 0.775", out["c"])
	}
	// Still a distribution.
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("blend sums to %v", sum)
	}
	// Labels in rooms outside the candidate set are ignored.
	s2 := NewLabelStore(4)
	s2.Add("d", "elsewhere", t0)
	out = blendMap(s2, "d", prior)
	if out["a"] != 0.6 {
		t.Errorf("foreign-room labels changed prior: %v", out)
	}
}

// Property: BlendDense always returns a probability distribution over the
// candidate rooms, is monotone in label counts for the labeled room, and
// equals the map-form reference bit for bit.
func TestLabelBlendProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewLabelStore(1 + rng.Float64()*10)
		prior := map[space.RoomID]float64{}
		rooms := []space.RoomID{"a", "b", "c", "d"}
		total := 0.0
		for _, r := range rooms {
			prior[r] = 0.05 + rng.Float64()
			total += prior[r]
		}
		for _, r := range rooms {
			prior[r] /= total
		}
		target := rooms[rng.Intn(len(rooms))]
		prev := prior[target]
		for i := 0; i < 5; i++ {
			s.Add("d", target, t0)
			out := blendMap(s, "d", prior)
			for r, v := range refBlend(s, "d", prior) {
				if out[r] != v {
					return false
				}
			}
			sum := 0.0
			for _, r := range rooms {
				if out[r] < -1e-12 {
					return false
				}
				sum += out[r]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			if out[target]+1e-12 < prev {
				return false // more labels must not lower the labeled room
			}
			prev = out[target]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsSharpenLocate(t *testing.T) {
	b := paperBuilding(t)
	// d9 has no preferred room: the prior favors the public room 2065.
	st := setupScene(t, b, map[event.DeviceID]space.APID{"d9": "wap3"})
	l := New(b, st, fixedAffinity{}, nil, Options{})
	g3, _ := b.RegionOf("wap3")

	res, err := l.Locate("d9", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != "2065" {
		t.Fatalf("unlabeled answer = %s, want public 2065", res.Room)
	}

	// Crowd-sourced labels say d9 actually works in 2069.
	labels := NewLabelStore(2)
	for i := 0; i < 10; i++ {
		labels.Add("d9", "2069", t0.Add(time.Duration(i)*time.Hour))
	}
	l.SetLabelStore(labels)
	res, err = l.Locate("d9", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != "2069" {
		t.Errorf("labeled answer = %s, want 2069", res.Room)
	}
}

func TestTimePreferredRoomsShiftPrior(t *testing.T) {
	b := paperBuilding(t)
	st := setupScene(t, b, map[event.DeviceID]space.APID{"d1": "wap3"})
	// d1 statically prefers 2061; over lunch they prefer the public 2065.
	if err := b.SetTimePreferredRooms("d1", []space.TimePreference{
		{StartMinute: 12 * 60, EndMinute: 13 * 60, Rooms: []space.RoomID{"2065"}},
	}); err != nil {
		t.Fatal(err)
	}
	l := New(b, st, fixedAffinity{}, nil, Options{})
	g3, _ := b.RegionOf("wap3")

	// t0 is 09:00: static preference applies.
	res, err := l.Locate("d1", g3, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != "2061" {
		t.Errorf("morning room = %s, want 2061", res.Room)
	}
	// Same device at 12:30 — but the store only has an event at t0, so use
	// a fresh scene with a lunch-time event.
	lunch := t0.Add(3*time.Hour + 30*time.Minute) // 12:30
	st2 := setupScene(t, b, map[event.DeviceID]space.APID{})
	st2.Ingest([]event.Event{{Device: "d1", Time: lunch, AP: "wap3"}})
	st2.SetDelta("d1", 10*time.Minute)
	l2 := New(b, st2, fixedAffinity{}, nil, Options{})
	res, err = l2.Locate("d1", g3, lunch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != "2065" {
		t.Errorf("lunch room = %s, want time-preferred 2065", res.Room)
	}
}
