package event

import (
	"math"
	"math/rand"
	"reflect"
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

// recsOf returns one device's events as the store holds them: records in
// (Nanos, ID) order and the AP dictionary their ordinals index.
func recsOf(evs []Event) ([]Rec, []space.APID) {
	var aps []space.APID
	ord := map[space.APID]uint32{}
	recs := make([]Rec, len(evs))
	for i, e := range evs {
		o, ok := ord[e.AP]
		if !ok {
			o = uint32(len(aps))
			ord[e.AP] = o
			aps = append(aps, e.AP)
		}
		recs[i] = Rec{Nanos: e.Time.UnixNano(), ID: e.ID, AP: o}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Before(recs[j]) })
	return recs, aps
}

// log is one device's events in both forms: records for the kernels and
// the oracle over the same events, expanded from the records so both sides
// hold identical time values.
type log struct {
	recs  []Rec
	aps   []space.APID
	delta time.Duration
	ref   *refTimeline
}

func newLog(delta time.Duration, evs []Event) log {
	recs, aps := recsOf(evs)
	expanded := make([]Event, len(recs))
	for i, r := range recs {
		expanded[i] = r.Event("d", aps)
	}
	return log{recs: recs, aps: aps, delta: delta, ref: newRefTimeline("d", delta, expanded)}
}

func (l log) at(t time.Time) (Validity, Gap, Where) { return At("d", l.recs, l.aps, l.delta, t) }
func (l log) gaps() []Gap                           { return Gaps("d", l.recs, l.aps, l.delta) }

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

func TestValiditiesTruncation(t *testing.T) {
	// Events at 0, 5m, 30m with δ = 10m: e0's validity is truncated at e1's
	// timestamp; e1's validity spans (0m, 15m); e2's is untruncated on the
	// right.
	l := newLog(10*time.Minute, []Event{
		mk("d", 0, "a"), mk("d", 5*time.Minute, "a"), mk("d", 30*time.Minute, "b"),
	})
	if _, end := validityOf(l.recs, l.delta, 0); !end.Equal(t0.Add(5 * time.Minute)) {
		t.Errorf("e0 end = %v, want truncation at e1's time", end)
	}
	start, end := validityOf(l.recs, l.delta, 1)
	if !start.Equal(t0) {
		t.Errorf("e1 start = %v, want truncation at e0's time", start)
	}
	if !end.Equal(t0.Add(15 * time.Minute)) {
		t.Errorf("e1 end = %v, want t1+δ", end)
	}
	if _, end := validityOf(l.recs, l.delta, 2); !end.Equal(t0.Add(40 * time.Minute)) {
		t.Errorf("e2 end = %v, want t2+δ", end)
	}
}

func TestGapsDetection(t *testing.T) {
	l := newLog(10*time.Minute, []Event{
		mk("d", 0, "a"),
		mk("d", 15*time.Minute, "a"),  // no gap: validities touch/overlap
		mk("d", 100*time.Minute, "b"), // gap: (25m, 90m)
	})
	gaps := l.gaps()
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
	if g.PrevEvent.AP != "a" || g.NextEvent.AP != "b" || g.Device != "d" {
		t.Errorf("gap expanded as %v", g)
	}
}

func TestAtClassification(t *testing.T) {
	l := newLog(10*time.Minute, []Event{
		mk("d", 0, "a"),
		mk("d", 100*time.Minute, "b"),
	})

	// Inside e0's validity.
	v, g, w := l.at(t0.Add(5 * time.Minute))
	if w != InValidity {
		t.Fatalf("t=5m: want validity, got %d: v=%v g=%v", w, v, g)
	}
	if v.Event.AP != "a" {
		t.Errorf("t=5m AP = %s", v.Event.AP)
	}
	// Left edge of e0's validity (closed interval).
	if _, _, w := l.at(t0.Add(-10 * time.Minute)); w != InValidity {
		t.Error("t=-10m should be inside validity (closed)")
	}
	// Inside the gap.
	v, g, w = l.at(t0.Add(50 * time.Minute))
	if w != InGap || g.PrevEvent.AP != "a" || g.NextEvent.AP != "b" {
		t.Fatalf("t=50m: want the a→b gap, got %d: v=%v g=%v", w, v, g)
	}
	// Inside e1's validity.
	v, _, w = l.at(t0.Add(95 * time.Minute))
	if w != InValidity || v.Event.AP != "b" {
		t.Fatalf("t=95m: want validity of b, got %d: %v", w, v)
	}
	// Before all data.
	if _, _, w := l.at(t0.Add(-time.Hour)); w != Unknown {
		t.Error("t=-1h should be unknown")
	}
	// After all data.
	if _, _, w := l.at(t0.Add(5 * time.Hour)); w != Unknown {
		t.Error("t=+5h should be unknown")
	}
}

func TestAtEmptyTimeline(t *testing.T) {
	if _, _, w := At("d", nil, nil, time.Minute, t0); w != Unknown {
		t.Error("an empty log should classify nothing")
	}
	if _, ok := APAt(nil, time.Minute, t0); ok {
		t.Error("APAt on an empty log")
	}
	if gaps := Gaps("d", nil, nil, time.Minute); gaps != nil {
		t.Errorf("Gaps of an empty log = %v", gaps)
	}
}

func TestEstimateDelta(t *testing.T) {
	var evs []Event
	for i := 0; i < 20; i++ {
		evs = append(evs, mk("d", time.Duration(i)*5*time.Minute, "a"))
	}
	recs, _ := recsOf(evs)
	d := EstimateDelta(recs, 0.9, time.Minute, time.Hour, 10*time.Minute)
	if d != 5*time.Minute {
		t.Errorf("EstimateDelta = %v, want 5m (uniform spacing)", d)
	}
	// Too little data → fallback.
	d = EstimateDelta(recs[:1], 0.9, time.Minute, time.Hour, 10*time.Minute)
	if d != 10*time.Minute {
		t.Errorf("fallback = %v, want 10m", d)
	}
	// Clamping.
	d = EstimateDelta(recs, 0.9, 7*time.Minute, time.Hour, 10*time.Minute)
	if d != 7*time.Minute {
		t.Errorf("min clamp = %v, want 7m", d)
	}
	d = EstimateDelta(recs, 0.9, time.Minute, 3*time.Minute, 10*time.Minute)
	if d != 3*time.Minute {
		t.Errorf("max clamp = %v, want 3m", d)
	}
	// Invalid quantile falls back to 0.9.
	d = EstimateDelta(recs, -1, time.Minute, time.Hour, 10*time.Minute)
	if d != 5*time.Minute {
		t.Errorf("invalid quantile = %v, want 5m", d)
	}
}

// randomLog builds a random log for property tests. Modes vary the shape:
// spread-out events, bursts with equal timestamps (ties broken by IDs that
// do not follow arrival order), δ wider than the spacing, and events at and
// near the int64-nanosecond bounds.
func randomLog(rng *rand.Rand) log {
	n := rng.Intn(40)
	if rng.Intn(8) == 0 {
		n = rng.Intn(2) // empty and one-event logs
	}
	delta := time.Duration(1+rng.Intn(30)) * time.Minute
	step := time.Duration(rng.Intn(3600)) * time.Second
	base := t0
	switch rng.Intn(5) {
	case 1: // bursts: many equal timestamps
		step = time.Duration(rng.Intn(3)) * time.Minute
	case 2: // δ far wider than the spacing
		delta = time.Duration(1+rng.Intn(48)) * time.Hour
	case 3: // from the lower int64 bound up
		base = time.Unix(0, math.MinInt64)
	case 4: // up to the upper int64 bound
		base = time.Unix(0, math.MaxInt64).Add(-time.Duration(n) * 3600 * time.Second)
		if rng.Intn(3) == 0 {
			delta = 100 * 365 * 24 * time.Hour // boundaries past int64 nanoseconds
		}
	}
	evs := make([]Event, n)
	ids := rng.Perm(n)
	cur := base
	for i := range evs {
		if i > 0 {
			cur = cur.Add(time.Duration(rng.Int63n(int64(step) + 1)))
		}
		if cur.After(time.Unix(0, math.MaxInt64)) {
			cur = time.Unix(0, math.MaxInt64)
		}
		evs[i] = Event{ID: int64(ids[i]), Device: "d", Time: cur, AP: space.APID(string(rune('a' + rng.Intn(3))))}
	}
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	return newLog(delta, evs)
}

// probes returns query times on every boundary of the log — each event's
// time, t ± δ, and one nanosecond either side of each — plus random times
// around the log and times outside int64 nanoseconds.
func probes(rng *rand.Rand, l log) []time.Time {
	out := []time.Time{t0, time.Unix(0, math.MinInt64).Add(-time.Hour), time.Unix(0, math.MaxInt64).Add(time.Hour)}
	for _, e := range l.ref.events {
		for _, b := range []time.Time{e.Time, e.Time.Add(l.delta), e.Time.Add(-l.delta)} {
			out = append(out, b, b.Add(-1), b.Add(1))
		}
		out = append(out, e.Time.Add(2*time.Duration(rng.Int63n(int64(l.delta)))-l.delta))
	}
	return out
}

// TestKernelsMatchOracle: At, APAt, Gaps and EstimateDelta over records
// answer bit for bit as the event-form transcription of Section 2 and
// Appendix 9.1 (refTimeline) on random logs.
func TestKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		l := randomLog(rng)
		if got, want := l.gaps(), l.ref.gaps(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Gaps = %v, oracle %v", trial, got, want)
		}
		for _, tq := range probes(rng, l) {
			v, g, w := l.at(tq)
			rv, rg, rw := l.ref.at(tq)
			if v != rv || g != rg || w != rw {
				t.Fatalf("trial %d (δ %v, %d events): At(%v) = %v %v %d, oracle %v %v %d",
					trial, l.delta, len(l.recs), tq, v, g, w, rv, rg, rw)
			}
			o, ok := APAt(l.recs, l.delta, tq)
			rap, rok := l.ref.apAt(tq)
			if ok != rok || (ok && l.aps[o] != rap) {
				t.Fatalf("trial %d: APAt(%v) = %d %v, oracle %s %v", trial, tq, o, ok, rap, rok)
			}
		}
		q := rng.Float64()*1.2 - 0.1
		minD := time.Duration(rng.Intn(20)) * time.Minute
		maxD := minD + time.Duration(rng.Intn(600))*time.Minute
		if got, want := EstimateDelta(l.recs, q, minD, maxD, 7*time.Minute), refEstimateDelta(l.ref.events, q, minD, maxD, 7*time.Minute); got != want {
			t.Fatalf("trial %d: EstimateDelta(q=%v, [%v, %v]) = %v, oracle %v", trial, q, minD, maxD, got, want)
		}
	}
}

// TestFirstAfterBounds: times outside int64 nanoseconds precede or follow
// every record, the bound records included.
func TestFirstAfterBounds(t *testing.T) {
	recs := []Rec{{Nanos: math.MinInt64}, {Nanos: 0}, {Nanos: math.MaxInt64}}
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, c := range []struct {
		t    time.Time
		want int
	}{
		{lo.Add(-1), 0}, {lo, 1}, {time.Unix(0, 0), 2}, {hi.Add(-1), 2}, {hi, 3}, {hi.Add(1), 3},
	} {
		if got := FirstAfter(recs, c.t); got != c.want {
			t.Errorf("FirstAfter(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

// Property: gaps are disjoint, ordered, and lie strictly between the
// validity intervals of their bounding events.
func TestGapsInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		l := randomLog(rand.New(rand.NewSource(seed)))
		gaps := l.gaps()
		for i, g := range gaps {
			if !g.Start.Before(g.End) {
				return false
			}
			if i > 0 && gaps[i-1].End.After(g.Start) {
				return false
			}
			// Gap boundaries touch the neighbors' validity exactly.
			if !g.Start.Equal(g.PrevEvent.Time.Add(l.delta)) {
				return false
			}
			if !g.End.Equal(g.NextEvent.Time.Add(-l.delta)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: At(t) agrees with a scan over the validities and gaps: a time
// inside some validity never reports a gap, and vice versa.
func TestAtAgreesWithScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLog(rng)
		vals, gaps := l.ref.validities(), l.gaps()
		for _, tq := range probes(rng, l) {
			_, _, w := l.at(tq)
			inVal := false
			for _, val := range vals {
				if val.Contains(tq) {
					inVal = true
					break
				}
			}
			inGap := false
			for _, gap := range gaps {
				if !tq.Before(gap.Start) && !tq.After(gap.End) {
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
		l := randomLog(rand.New(rand.NewSource(seed)))
		for i := range l.recs {
			start, end := validityOf(l.recs, l.delta, i)
			if end.Before(start) {
				return false
			}
			if i > 0 && start.Before(timeOf(l.recs[i-1].Nanos)) {
				return false
			}
			if i < len(l.recs)-1 && end.After(timeOf(l.recs[i+1].Nanos)) {
				return false
			}
			if i > 0 && l.recs[i].Nanos < l.recs[i-1].Nanos {
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
	l := newLog(10*time.Minute, []Event{
		{Device: "d", Time: base, AP: "ap1"},
		{Device: "d", Time: base.Add(5 * time.Minute), AP: "ap2"},
		{Device: "d", Time: base.Add(2 * time.Hour), AP: "ap3"},
	})
	for m := -30; m <= 200; m++ {
		probe := base.Add(time.Duration(m) * time.Minute)
		v, _, w := l.at(probe)
		o, ok := APAt(l.recs, l.delta, probe)
		if (w == InValidity) != ok {
			t.Fatalf("t=%v: At validity=%v, APAt ok=%v", probe, w == InValidity, ok)
		}
		if ok && v.Event.AP != l.aps[o] {
			t.Errorf("t=%v: AP %s vs %s", probe, v.Event.AP, l.aps[o])
		}
	}
}
