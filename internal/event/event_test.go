package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"locater/internal/space"
)

var t0 = time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)

func mk(dev string, offset time.Duration, ap string) Event {
	return Event{Device: DeviceID(dev), Time: t0.Add(offset), AP: space.APID(ap)}
}

func TestSortEvents(t *testing.T) {
	evs := []Event{
		{ID: 2, Device: "a", Time: t0.Add(time.Hour)},
		{ID: 1, Device: "a", Time: t0},
		{ID: 3, Device: "b", Time: t0},
	}
	SortEvents(evs)
	if evs[0].ID != 1 || evs[1].ID != 3 || evs[2].ID != 2 {
		t.Errorf("sort order wrong: %v", evs)
	}
}

// TestSortEventsMatchesSortSlice: SortEvents leaves events in exactly the
// order sort.Slice with Before gives, ties included (events that agree on
// (Time, ID, Device) but not on AP).
func TestSortEventsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		evs := make([]Event, 1+rng.Intn(200))
		for i := range evs {
			evs[i] = Event{
				ID:     int64(rng.Intn(4)),
				Device: DeviceID(string(rune('a' + rng.Intn(2)))),
				Time:   t0.Add(time.Duration(rng.Intn(8)) * time.Minute),
				AP:     space.APID(string(rune('p' + rng.Intn(8)))),
			}
		}
		want := append([]Event(nil), evs...)
		sort.Slice(want, func(i, j int) bool { return want[i].Before(want[j]) })
		SortEvents(evs)
		for i := range evs {
			if evs[i] != want[i] {
				t.Fatalf("trial %d: position %d is %v, sort.Slice gives %v", trial, i, evs[i], want[i])
			}
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{ID: 1, Device: "7fbh", Time: t0, AP: "wap3"}
	if got := e.String(); got == "" {
		t.Error("empty String()")
	}
}

func TestNewTimelineValidation(t *testing.T) {
	if _, err := NewTimeline("d", 0, nil); err == nil {
		t.Error("zero delta should fail")
	}
	if _, err := NewTimeline("d", -time.Minute, nil); err == nil {
		t.Error("negative delta should fail")
	}
	if _, err := NewTimeline("d", time.Minute, []Event{mk("other", 0, "ap")}); err == nil {
		t.Error("foreign device event should fail")
	}
}

func TestValiditiesTruncation(t *testing.T) {
	// Events at 0, 5m, 30m with δ = 10m: e0's validity is truncated at e1's
	// timestamp; e1's validity spans (0m, 15m); e2's is untruncated on the
	// right.
	delta := 10 * time.Minute
	tl, err := NewTimeline("d", delta, []Event{
		mk("d", 0, "a"), mk("d", 5*time.Minute, "a"), mk("d", 30*time.Minute, "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := tl.Validities()
	if len(vals) != 3 {
		t.Fatalf("got %d validities", len(vals))
	}
	if !vals[0].End.Equal(t0.Add(5 * time.Minute)) {
		t.Errorf("e0 end = %v, want truncation at e1's time", vals[0].End)
	}
	if !vals[1].Start.Equal(t0) {
		t.Errorf("e1 start = %v, want truncation at e0's time", vals[1].Start)
	}
	if !vals[1].End.Equal(t0.Add(15 * time.Minute)) {
		t.Errorf("e1 end = %v, want t1+δ", vals[1].End)
	}
	if !vals[2].End.Equal(t0.Add(40 * time.Minute)) {
		t.Errorf("e2 end = %v, want t2+δ", vals[2].End)
	}
}

func TestGapsDetection(t *testing.T) {
	delta := 10 * time.Minute
	tl, err := NewTimeline("d", delta, []Event{
		mk("d", 0, "a"),
		mk("d", 15*time.Minute, "a"),  // no gap: validities touch/overlap
		mk("d", 100*time.Minute, "b"), // gap: (25m, 90m)
	})
	if err != nil {
		t.Fatal(err)
	}
	gaps := tl.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("got %d gaps, want 1: %v", len(gaps), gaps)
	}
	g := gaps[0]
	if !g.Start.Equal(t0.Add(25 * time.Minute)) {
		t.Errorf("gap start = %v, want t1+δ", g.Start)
	}
	if !g.End.Equal(t0.Add(90 * time.Minute)) {
		t.Errorf("gap end = %v, want t2−δ", g.End)
	}
	if g.Duration() != 65*time.Minute {
		t.Errorf("gap duration = %v", g.Duration())
	}
	if g.PrevEvent.Time != t0.Add(15*time.Minute) || g.NextEvent.Time != t0.Add(100*time.Minute) {
		t.Error("gap bounding events wrong")
	}
}

func TestAtClassification(t *testing.T) {
	delta := 10 * time.Minute
	tl, err := NewTimeline("d", delta, []Event{
		mk("d", 0, "a"),
		mk("d", 100*time.Minute, "b"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Inside e0's validity.
	v, g, w := tl.At(t0.Add(5 * time.Minute))
	if w != InValidity {
		t.Fatalf("t=5m: want validity, got %d: v=%v g=%v", w, v, g)
	}
	if v.Event.AP != "a" {
		t.Errorf("t=5m AP = %s", v.Event.AP)
	}
	// Left edge of e0's validity (closed interval).
	if _, _, w := tl.At(t0.Add(-10 * time.Minute)); w != InValidity {
		t.Error("t=-10m should be inside validity (closed)")
	}
	// Inside the gap.
	v, g, w = tl.At(t0.Add(50 * time.Minute))
	if w != InGap || g.PrevEvent.AP != "a" || g.NextEvent.AP != "b" {
		t.Fatalf("t=50m: want the a→b gap, got %d: v=%v g=%v", w, v, g)
	}
	// Inside e1's validity.
	v, _, w = tl.At(t0.Add(95 * time.Minute))
	if w != InValidity || v.Event.AP != "b" {
		t.Fatalf("t=95m: want validity of b, got %d: %v", w, v)
	}
	// Before all data.
	if _, _, w := tl.At(t0.Add(-time.Hour)); w != Unknown {
		t.Error("t=-1h should be unknown")
	}
	// After all data.
	if _, _, w := tl.At(t0.Add(5 * time.Hour)); w != Unknown {
		t.Error("t=+5h should be unknown")
	}
}

func TestAtEmptyTimeline(t *testing.T) {
	tl, err := NewTimeline("d", time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, w := tl.At(t0); w != Unknown {
		t.Error("empty timeline should classify nothing")
	}
}

func TestEventsBetween(t *testing.T) {
	tl, err := NewTimeline("d", time.Minute, []Event{
		mk("d", 0, "a"), mk("d", 10*time.Minute, "a"), mk("d", 20*time.Minute, "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := tl.EventsBetween(t0.Add(5*time.Minute), t0.Add(15*time.Minute))
	if len(got) != 1 || got[0].Time != t0.Add(10*time.Minute) {
		t.Errorf("EventsBetween = %v", got)
	}
	if got := tl.EventsBetween(t0.Add(time.Hour), t0.Add(2*time.Hour)); got != nil {
		t.Errorf("empty window returned %v", got)
	}
	// Inclusive bounds.
	got = tl.EventsBetween(t0, t0.Add(20*time.Minute))
	if len(got) != 3 {
		t.Errorf("inclusive window returned %d events", len(got))
	}
}

func TestEstimateDelta(t *testing.T) {
	var evs []Event
	for i := 0; i < 20; i++ {
		evs = append(evs, mk("d", time.Duration(i)*5*time.Minute, "a"))
	}
	d := EstimateDelta(evs, 0.9, time.Minute, time.Hour, 10*time.Minute)
	if d != 5*time.Minute {
		t.Errorf("EstimateDelta = %v, want 5m (uniform spacing)", d)
	}
	// Too little data → fallback.
	d = EstimateDelta(evs[:1], 0.9, time.Minute, time.Hour, 10*time.Minute)
	if d != 10*time.Minute {
		t.Errorf("fallback = %v, want 10m", d)
	}
	// Clamping.
	d = EstimateDelta(evs, 0.9, 7*time.Minute, time.Hour, 10*time.Minute)
	if d != 7*time.Minute {
		t.Errorf("min clamp = %v, want 7m", d)
	}
	d = EstimateDelta(evs, 0.9, time.Minute, 3*time.Minute, 10*time.Minute)
	if d != 3*time.Minute {
		t.Errorf("max clamp = %v, want 3m", d)
	}
	// Invalid quantile falls back to 0.9.
	d = EstimateDelta(evs, -1, time.Minute, time.Hour, 10*time.Minute)
	if d != 5*time.Minute {
		t.Errorf("invalid quantile = %v, want 5m", d)
	}
}

// randomTimeline builds a random timeline for property tests.
func randomTimeline(rng *rand.Rand) *Timeline {
	n := rng.Intn(40)
	delta := time.Duration(1+rng.Intn(30)) * time.Minute
	evs := make([]Event, n)
	cur := t0
	for i := range evs {
		cur = cur.Add(time.Duration(rng.Intn(3600)) * time.Second)
		evs[i] = Event{Device: "d", Time: cur, AP: space.APID(string(rune('a' + rng.Intn(3))))}
	}
	tl, err := NewTimeline("d", delta, evs)
	if err != nil {
		panic(err)
	}
	return tl
}

// Property: gaps are disjoint, ordered, and lie strictly between the
// validity intervals of their bounding events.
func TestGapsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := randomTimeline(rng)
		gaps := tl.Gaps()
		for i, g := range gaps {
			if !g.Start.Before(g.End) {
				return false
			}
			if i > 0 && gaps[i-1].End.After(g.Start) {
				return false
			}
			// Gap boundaries touch the neighbors' validity exactly.
			if !g.Start.Equal(g.PrevEvent.Time.Add(tl.Delta)) {
				return false
			}
			if !g.End.Equal(g.NextEvent.Time.Add(-tl.Delta)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(t) agrees with a scan over Validities() and Gaps(): a time
// inside some validity never reports a gap, and vice versa.
func TestAtAgreesWithScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := randomTimeline(rng)
		if len(tl.Events) == 0 {
			return true
		}
		vals := tl.Validities()
		gaps := tl.Gaps()
		span := tl.Events[len(tl.Events)-1].Time.Sub(tl.Events[0].Time) + 2*tl.Delta
		for trial := 0; trial < 50; trial++ {
			tq := tl.Events[0].Time.Add(-tl.Delta + time.Duration(rng.Int63n(int64(span)+1)))
			_, _, w := tl.At(tq)
			inVal := false
			for _, val := range vals {
				if val.Contains(tq) {
					inVal = true
					break
				}
			}
			inGap := false
			for _, gap := range gaps {
				if gap.Contains(tq) || tq.Equal(gap.Start) || tq.Equal(gap.End) {
					inGap = true
					break
				}
			}
			if inVal != (w == InValidity) {
				return false
			}
			// Gaps only reported when not inside a validity.
			if !inVal && inGap && w != InGap {
				return false
			}
			if w == InGap && !inGap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: validity intervals never overlap each other's event timestamps
// and are ordered.
func TestValidityInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := randomTimeline(rng)
		vals := tl.Validities()
		for i, v := range vals {
			if v.End.Before(v.Start) {
				return false
			}
			if i > 0 && v.Start.Before(vals[i-1].Event.Time) {
				return false
			}
			if i < len(vals)-1 && v.End.After(vals[i+1].Event.Time) {
				return false
			}
		}
		for i := 1; i < len(vals); i++ {
			if vals[i].Event.Time.Before(vals[i-1].Event.Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestAPAtMatchesAt: the zero-alloc APAt must agree with At's validity case
// at every probe instant, including interval boundaries and gaps.
func TestAPAtMatchesAt(t *testing.T) {
	base := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	tl, err := NewTimeline("d", 10*time.Minute, []Event{
		{Device: "d", Time: base, AP: "ap1"},
		{Device: "d", Time: base.Add(5 * time.Minute), AP: "ap2"},
		{Device: "d", Time: base.Add(2 * time.Hour), AP: "ap3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for m := -30; m <= 200; m++ {
		probe := base.Add(time.Duration(m) * time.Minute)
		v, _, w := tl.At(probe)
		ap, ok := tl.APAt(probe)
		if (w == InValidity) != ok {
			t.Fatalf("t=%v: At validity=%v, APAt ok=%v", probe, w == InValidity, ok)
		}
		if ok && v.Event.AP != ap {
			t.Errorf("t=%v: AP %s vs %s", probe, v.Event.AP, ap)
		}
	}
	// Empty timeline.
	empty := Timeline{Device: "d", Delta: time.Minute}
	if _, ok := empty.APAt(base); ok {
		t.Error("APAt on empty timeline")
	}
}
