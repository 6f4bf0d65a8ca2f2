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

// BenchmarkCoarseLocateWarm answers distinct (device, minute) daytime keys
// over the last week that fall in a gap, with every model already trained.
func BenchmarkCoarseLocateWarm(b *testing.B) {
	bld, st, people := goldenStore(b)
	l := New(bld, st, Options{MaxPromotionsPerRound: 8})
	type key struct {
		d  event.DeviceID
		tq time.Time
	}
	var keys []key
	for m := 0; m < 460; m++ { // 37 is coprime with 600, so every minute is distinct
		tq := goldenStart.AddDate(0, 0, 7+m%7).Add(8*time.Hour + time.Duration(m*37%600)*time.Minute)
		for _, d := range people {
			if _, err := l.model(d); err != nil {
				b.Fatal(err)
			}
			if v, _, _ := st.At(d, tq); v == nil {
				keys = append(keys, key{d, tq})
			}
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
