package coarse

import (
	"math"
	"sync"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// gapQuery is one closed gap of a device, asked at its midpoint.
type gapQuery struct {
	d  event.DeviceID
	tq time.Time
}

// deviceGaps returns every gap of device d's whole log in st.
func deviceGaps(st *store.Store, d event.DeviceID) []event.Gap {
	var gaps []event.Gap
	lo, hi, _ := st.TimeBounds()
	st.ScanEvents(d, lo, hi, func(recs []event.Rec, aps []space.APID, delta time.Duration) {
		gaps = event.Gaps(d, recs, aps, delta)
	})
	return gaps
}

// closedGapQueries returns one query per closed gap of every device in st.
func closedGapQueries(t testing.TB, st *store.Store) []gapQuery {
	t.Helper()
	var out []gapQuery
	for _, d := range st.Devices() {
		for _, g := range deviceGaps(st, d) {
			out = append(out, gapQuery{d, g.Start.Add(g.Duration() / 2)})
		}
	}
	return out
}

// sameAnswer compares two coarse answers bit for bit, gap included.
func sameAnswer(got, want Result) bool {
	if got.Outside != want.Outside || got.Region != want.Region || got.FromValidity != want.FromValidity ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		return false
	}
	if (got.Gap == nil) != (want.Gap == nil) {
		return false
	}
	return got.Gap == nil || (got.Gap.Start.Equal(want.Gap.Start) && got.Gap.End.Equal(want.Gap.End) &&
		got.Gap.PrevEvent == want.Gap.PrevEvent && got.Gap.NextEvent == want.Gap.NextEvent)
}

// classifyAt is the answer Locate gave before closed gaps were memoized, and
// the one a newly built localizer gives: the gap at q classified from the
// device's model, trained on demand.
func classifyAt(t testing.TB, l *Localizer, q gapQuery) Result {
	t.Helper()
	_, g, w, err := l.store.At(q.d, q.tq)
	if err != nil || w != event.InGap {
		t.Fatalf("(%s, %v) is not in a closed gap: %v", q.d, q.tq, err)
	}
	res, err := l.classifyGap(q.d, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Gap = &g
	return res
}

// TestGapAnswersMatchFreshLocalizer: every closed gap of the golden dataset,
// asked twice of a localizer with warm models — a memo miss, then a hit —
// answers bit for bit what an unmemoized localizer answers.
func TestGapAnswersMatchFreshLocalizer(t *testing.T) {
	b, st, _ := goldenStore(t)
	queries := closedGapQueries(t, st)
	for _, cfg := range goldenConfigs {
		l := New(b, st, cfg.opts)
		ref := New(b, st, cfg.opts)
		for _, d := range st.Devices() {
			if _, err := l.model(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			want := classifyAt(t, ref, q)
			for pass := 0; pass < 2; pass++ {
				got, err := l.Locate(q.d, q.tq)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(got, want) {
					t.Fatalf("%s (%s, %v) pass %d: memoized %+v, fresh %+v", cfg.name, q.d, q.tq, pass, got, want)
				}
			}
		}
		st := l.GapAnswerStats()
		if n := int64(len(queries)); st.Misses != n || st.Hits != n || int64(st.Size) != n {
			t.Errorf("%s: %d gaps gave hits=%d misses=%d size=%d, want %d each", cfg.name, n, st.Hits, st.Misses, st.Size, n)
		}
	}
}

// TestGapAnswersPerDevice: devices with no history in the training window
// share the population model's classifiers, but not their answers. Two such
// devices with gaps of the same bounds between different APs answer with
// their own bootstrap regions.
func TestGapAnswersPerDevice(t *testing.T) {
	b, st, _ := goldenStore(t)
	aps := b.AccessPoints()
	day := goldenStart.AddDate(0, 0, -50) // before the 56-day window ending at the newest event
	devs := []event.DeviceID{"zz:old-a", "zz:old-b"}
	var evs []event.Event
	for i, d := range devs {
		evs = append(evs,
			event.Event{Device: d, Time: day.Add(10 * time.Hour), AP: aps[2*i]},
			event.Event{Device: d, Time: day.Add(10*time.Hour + 35*time.Minute), AP: aps[2*i+1]})
	}
	if _, err := st.Ingest(evs); err != nil {
		t.Fatal(err)
	}
	l := New(b, st, Options{})
	for i, d := range devs {
		m, err := l.model(d)
		if err != nil {
			t.Fatal(err)
		}
		if pm := l.population; pm == nil || m.insideModel != pm.insideModel || m.insideMajority != pm.insideMajority {
			t.Fatalf("%s is not served by the population model", d)
		}
		q := gapQuery{d, day.Add(10*time.Hour + 17*time.Minute)}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := b.RegionOf(aps[2*i])
		if got.Gap == nil || got.Region != want {
			t.Fatalf("%s: %+v, want region %s", d, got, want)
		}
	}
	if st := l.GapAnswerStats(); st.Misses != 2 || st.Size != 2 {
		t.Errorf("misses=%d size=%d, want 2 and 2", st.Misses, st.Size)
	}
}

// modelArmQuery returns a closed gap of a device with a trained classifier
// that the heuristics leave to the model, so ω feeds its answer.
func modelArmQuery(t testing.TB, l *Localizer, people []event.DeviceID) gapQuery {
	t.Helper()
	th := l.opts.Thresholds
	for _, d := range people {
		m, err := l.model(d)
		if err != nil {
			t.Fatal(err)
		}
		if m.insideModel == nil {
			continue
		}
		for _, g := range deviceGaps(l.store, d) {
			if g.Duration() > th.TauLow && g.Duration() < th.TauHigh && !gapSpansDays(g) &&
				g.Start.After(goldenStart.AddDate(0, 0, 7)) {
				return gapQuery{d, g.Start.Add(g.Duration() / 2)}
			}
		}
	}
	t.Fatal("no device answers a gap from its trained classifier")
	return gapQuery{}
}

// TestGapAnswersFollowWrites: every write that can move a closed gap's
// answer also drops the answers remembered for it — an out-of-order ingest
// before the gap, SetDelta, EstimateDeltas — and eviction takes them along
// with the model. Each write is followed by a retraining, so the answer
// after it comes from a cached model's memo, not the first-touch path.
func TestGapAnswersFollowWrites(t *testing.T) {
	opts := goldenConfigs[2].opts

	t.Run("out-of-order ingest", func(t *testing.T) {
		b, st, people := goldenStore(t)
		l := New(b, st, opts)
		q := modelArmQuery(t, l, people)
		before, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		// Events a day before the gap, inside its time-of-day window, raise ω.
		g := before.Gap
		var late []event.Event
		for i := 0; i < 6; i++ {
			late = append(late, event.Event{Device: q.d, Time: g.Start.Add(-24*time.Hour + time.Duration(i)*time.Minute), AP: g.PrevEvent.AP})
		}
		if _, err := st.Ingest(late); err != nil {
			t.Fatal(err)
		}
		l.ObserveIngest(late)
		if _, err := l.model(q.d); err != nil {
			t.Fatal(err)
		}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		want := classifyAt(t, New(b, st, opts), q)
		if !sameAnswer(got, want) {
			t.Fatalf("after ingest: %+v, fresh %+v", got, want)
		}
		if sameAnswer(got, before) {
			t.Fatalf("raising ω left the answer at %+v; the test needs one it moves", before)
		}
	})

	t.Run("out-of-order ingest changes the bootstrap region", func(t *testing.T) {
		b, st, _ := goldenStore(t)
		l := New(b, st, opts)
		// A short gap between two regions takes the modal region of the
		// device's history in its time-of-day window.
		aps := b.AccessPoints()
		d := event.DeviceID("zz:wanderer")
		day := goldenStart.AddDate(0, 0, 12)
		evs := []event.Event{
			{Device: d, Time: day.Add(10 * time.Hour), AP: aps[0]},
			{Device: d, Time: day.Add(10*time.Hour + 35*time.Minute), AP: aps[1]},
		}
		if _, err := st.Ingest(evs); err != nil {
			t.Fatal(err)
		}
		l.ObserveIngest(evs)
		if _, err := l.model(d); err != nil {
			t.Fatal(err)
		}
		q := gapQuery{d, day.Add(10*time.Hour + 17*time.Minute)}
		before, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if before.Gap == nil || before.Outside {
			t.Fatalf("want an inside gap answer, got %+v", before)
		}
		var earlier []event.Event
		for i := 0; i < 3; i++ {
			earlier = append(earlier, event.Event{Device: d, Time: day.AddDate(0, 0, -1-i).Add(10*time.Hour + 17*time.Minute), AP: aps[7]})
		}
		if _, err := st.Ingest(earlier); err != nil {
			t.Fatal(err)
		}
		l.ObserveIngest(earlier)
		if _, err := l.model(d); err != nil {
			t.Fatal(err)
		}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		want := classifyAt(t, New(b, st, opts), q)
		if !sameAnswer(got, want) {
			t.Fatalf("after ingest: %+v, fresh %+v", got, want)
		}
		if region, _ := b.RegionOf(aps[7]); got.Region != region || got.Region == before.Region {
			t.Fatalf("history now points at %s; region moved %s -> %s", region, before.Region, got.Region)
		}
	})

	t.Run("SetDelta", func(t *testing.T) {
		b, st, people := goldenStore(t)
		l := New(b, st, opts)
		q := modelArmQuery(t, l, people)
		if _, err := l.Locate(q.d, q.tq); err != nil {
			t.Fatal(err)
		}
		if err := st.SetDelta(q.d, st.Delta(q.d)+3*time.Minute); err != nil {
			t.Fatal(err)
		}
		l.InvalidateDevice(q.d)
		if _, err := l.model(q.d); err != nil {
			t.Fatal(err)
		}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if want := classifyAt(t, New(b, st, opts), q); !sameAnswer(got, want) {
			t.Fatalf("after SetDelta: %+v, fresh %+v", got, want)
		}
	})

	t.Run("EstimateDeltas", func(t *testing.T) {
		b, st, people := goldenStore(t)
		l := New(b, st, opts)
		people = people[:4]
		var queries []gapQuery
		for _, q := range closedGapQueries(t, st) {
			if q.d == people[0] || q.d == people[1] || q.d == people[2] || q.d == people[3] {
				queries = append(queries, q)
			}
		}
		for _, d := range people {
			if _, err := l.model(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, err := l.Locate(q.d, q.tq); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.EstimateDeltas(0.5, time.Minute, 30*time.Minute); err != nil {
			t.Fatal(err)
		}
		l.InvalidateAll()
		ref := New(b, st, opts)
		for _, d := range people {
			if _, err := l.model(d); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			if _, _, w, _ := st.At(q.d, q.tq); w != event.InGap {
				continue // the new δ closed this gap
			}
			got, err := l.Locate(q.d, q.tq)
			if err != nil {
				t.Fatal(err)
			}
			if want := classifyAt(t, ref, q); !sameAnswer(got, want) {
				t.Fatalf("after EstimateDeltas (%s, %v): %+v, fresh %+v", q.d, q.tq, got, want)
			}
		}
	})

	t.Run("eviction", func(t *testing.T) {
		b, st, people := goldenStore(t)
		o := opts
		o.ModelCacheCapacity = 1
		l := New(b, st, o)
		q := modelArmQuery(t, l, people)
		l.InvalidateAll()
		if _, err := l.model(q.d); err != nil {
			t.Fatal(err)
		}
		want, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.GapAnswerStats().Size; got != 1 {
			t.Fatalf("%d answers resident, want 1", got)
		}
		other := people[0]
		if other == q.d {
			other = people[1]
		}
		if _, err := l.model(other); err != nil {
			t.Fatal(err)
		}
		if got := l.GapAnswerStats().Size; got != 0 {
			t.Fatalf("%d answers resident after their model was evicted, want 0", got)
		}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(got, want) {
			t.Fatalf("after eviction: %+v, before %+v", got, want)
		}
	})
}

// TestGapAnswersBounded: a model holding maxGapAnswers answers still answers
// new gaps correctly but remembers no more.
func TestGapAnswersBounded(t *testing.T) {
	b, st, people := goldenStore(t)
	l := New(b, st, Options{})
	q := modelArmQuery(t, l, people)
	m, _ := l.cachedModel(q.d)
	m.answers = make(map[gapKey]gapAnswer, maxGapAnswers)
	for i := 0; i < maxGapAnswers; i++ {
		m.answers[gapKey{start: int64(-1 - i)}] = gapAnswer{outside: true, region: -1}
	}
	want := classifyAt(t, New(b, st, Options{}), q)
	for pass := 0; pass < 2; pass++ {
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(got, want) {
			t.Fatalf("pass %d: %+v, fresh %+v", pass, got, want)
		}
	}
	if n := len(m.answers); n != maxGapAnswers {
		t.Fatalf("model holds %d answers, cap is %d", n, maxGapAnswers)
	}
	if st := l.GapAnswerStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("hits=%d misses=%d, want 0 and 2", st.Hits, st.Misses)
	}
}

// TestGapAnswersConcurrentWithIngest runs two readers over closed gaps beside
// an ingester that keeps dropping their models (meant for -race). Once the
// writes stop, every answer equals an unmemoized localizer's.
func TestGapAnswersConcurrentWithIngest(t *testing.T) {
	b, st, people := goldenStore(t)
	opts := goldenConfigs[1].opts
	l := New(b, st, opts)
	devices := people[:3]
	var queries []gapQuery
	for _, q := range closedGapQueries(t, st) {
		for _, d := range devices {
			if q.d == d {
				queries = append(queries, q)
			}
		}
	}
	for _, d := range devices {
		if _, err := l.model(d); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// progress lets the ingester write only between reads.
	progress := make(chan struct{}, 1)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				if _, err := l.Locate(q.d, q.tq); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					l.GapAnswerStats()
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	aps := b.AccessPoints()
	for i := 0; i < 24; i++ {
		<-progress
		// Out of order: the first week's mornings, before most queried gaps.
		d := devices[i%len(devices)]
		e := []event.Event{{Device: d, Time: goldenStart.AddDate(0, 0, i%7).Add(6*time.Hour + time.Duration(i)*time.Minute), AP: aps[i%len(aps)]}}
		if _, err := st.Ingest(e); err != nil {
			t.Error(err)
			break
		}
		l.ObserveIngest(e)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	ref := New(b, st, opts)
	for _, q := range queries {
		if _, _, w, _ := st.At(q.d, q.tq); w != event.InGap {
			continue
		}
		got, err := l.Locate(q.d, q.tq)
		if err != nil {
			t.Fatal(err)
		}
		if want := classifyAt(t, ref, q); !sameAnswer(got, want) {
			t.Fatalf("(%s, %v) after the writes: %+v, fresh %+v", q.d, q.tq, got, want)
		}
	}
}
