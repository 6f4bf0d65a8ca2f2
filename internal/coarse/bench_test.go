package coarse

import (
	"testing"
	"time"

	"locater/internal/event"
)

// BenchmarkCoarseTrain trains one simulated device's models per iteration
// (the golden's dataset, the benchmark deployment's 8 promotions per round).
func BenchmarkCoarseTrain(b *testing.B) {
	bld, st, people := goldenStore(b)
	l := New(bld, st, Options{MaxPromotionsPerRound: 8})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.train(people[i%len(people)]); err != nil {
			b.Fatal(err)
		}
	}
}

// warmKey is a benchmark query with the model that answers it and the memo
// key of its closed gap (zero for an open gap).
type warmKey struct {
	d   event.DeviceID
	tq  time.Time
	m   *deviceModel
	gap gapKey
}

// warmKeys returns distinct (device, minute) daytime keys over the last week
// that fall in a gap, with every model already trained.
func warmKeys(b *testing.B) (*Localizer, []warmKey) {
	bld, st, people := goldenStore(b)
	l := New(bld, st, Options{MaxPromotionsPerRound: 8})
	var keys []warmKey
	for m := 0; m < 460; m++ { // 37 is coprime with 600, so every minute is distinct
		tq := goldenStart.AddDate(0, 0, 7+m%7).Add(8*time.Hour + time.Duration(m*37%600)*time.Minute)
		for _, d := range people {
			model, err := l.model(d)
			if err != nil {
				b.Fatal(err)
			}
			_, g, w, _ := st.At(d, tq)
			if w == event.InValidity {
				continue
			}
			k := warmKey{d: d, tq: tq, m: model}
			if w == event.InGap {
				k.gap = gapKey{g.Start.UnixNano(), g.End.UnixNano()}
			}
			keys = append(keys, k)
		}
	}
	return l, keys
}

// BenchmarkCoarseLocateWarm answers warmKeys with each closed gap's memo
// entry cleared first, so every gap is classified: the cost of a first ask.
func BenchmarkCoarseLocateWarm(b *testing.B) {
	l, keys := warmKeys(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		k.m.answersMu.Lock()
		delete(k.m.answers, k.gap)
		k.m.answersMu.Unlock()
		if _, err := l.Locate(k.d, k.tq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoarseLocateRepeat answers warmKeys again after one pass has
// remembered every closed gap: the cost of a repeat ask.
func BenchmarkCoarseLocateRepeat(b *testing.B) {
	l, keys := warmKeys(b)
	for _, k := range keys {
		if _, err := l.Locate(k.d, k.tq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, err := l.Locate(k.d, k.tq); err != nil {
			b.Fatal(err)
		}
	}
}
