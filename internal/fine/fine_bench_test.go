package fine

import (
	"fmt"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
	"locater/internal/store"
)

// benchScene wires a region full of neighbors around the queried device.
func benchScene(b *testing.B, neighbors int, variant Variant, stop bool) (*Localizer, space.RegionID) {
	b.Helper()
	bld := paperBuilding(b)
	st := store.New(0)
	aff := fixedAffinity{}
	conns := map[event.DeviceID]space.APID{"d1": "wap3"}
	for i := 0; i < neighbors; i++ {
		d := event.DeviceID(fmt.Sprintf("n%03d", i))
		conns[d] = "wap3"
		aff[pair("d1", d)] = 0.1 + 0.8*float64(i%7)/7
	}
	for d, ap := range conns {
		if _, err := st.Ingest([]event.Event{{Device: d, Time: t0, AP: ap}}); err != nil {
			b.Fatal(err)
		}
		if err := st.SetDelta(d, 10*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
	l := New(bld, st, aff, nil, Options{Variant: variant, UseStopConditions: stop})
	g3, _ := bld.RegionOf("wap3")
	return l, g3
}

func BenchmarkLocateIndependent(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("neighbors=%d", n), func(b *testing.B) {
			l, g := benchScene(b, n, Independent, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Locate("d1", g, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLocateDependent(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("neighbors=%d", n), func(b *testing.B) {
			l, g := benchScene(b, n, Dependent, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Locate("d1", g, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLocateNoStopConditions(b *testing.B) {
	l, g := benchScene(b, 32, Independent, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Locate("d1", g, t0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighborSet measures candidate-neighbor discovery (D_n
// construction) at a fixed neighborhood size while the total device count
// in the store scales: 32 devices near t_q, the rest with history a month
// away. Served from the occupancy index, the cost should track the active
// neighborhood, not the store population.
func BenchmarkNeighborSet(b *testing.B) {
	for _, total := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("devices=%d", total), func(b *testing.B) {
			bld := paperBuilding(b)
			st := store.New(0)
			aff := fixedAffinity{}
			evs := make([]event.Event, 0, total+33)
			// The queried device plus 32 live neighbors at t_q.
			evs = append(evs, event.Event{Device: "d1", Time: t0, AP: "wap3"})
			for i := 0; i < 32; i++ {
				d := event.DeviceID(fmt.Sprintf("n%03d", i))
				aff[pair("d1", d)] = 0.1 + 0.8*float64(i%7)/7
				evs = append(evs, event.Event{Device: d, Time: t0, AP: "wap3"})
			}
			// Background population: history far from t_q.
			for i := 0; i < total; i++ {
				evs = append(evs, event.Event{
					Device: event.DeviceID(fmt.Sprintf("bg%06d", i)),
					Time:   t0.Add(-30*24*time.Hour + time.Duration(i%1440)*time.Minute),
					AP:     "wap4",
				})
			}
			if _, err := st.Ingest(evs); err != nil {
				b.Fatal(err)
			}
			l := New(bld, st, aff, nil, Options{UseStopConditions: true})
			g3, _ := bld.RegionOf("wap3")
			candidates := bld.CandidateRooms(g3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qc := acquireQueryCtx(candidates)
				l.priorInto("d1", candidates, t0, qc.prior)
				for j, p := range qc.prior {
					qc.lp[j] = logit(p)
				}
				if got := l.neighborSet(qc, "d1", g3, t0); len(got) != 32 {
					b.Fatalf("neighbors = %d, want 32", len(got))
				}
				qc.release()
			}
		})
	}
}

// historyScene builds a store where the queried device and every neighbor
// carry real co-located history, so store-backed affinities are non-trivial:
// the cold-query benchmarks exercise the batched sweep end to end.
func historyScene(b *testing.B, neighbors int) (*space.Building, *store.Store, space.RegionID) {
	b.Helper()
	bld := paperBuilding(b)
	st := store.New(0)
	var evs []event.Event
	var qTimes []time.Time
	for k := 0; k < 336; k++ { // two weeks, hourly
		ts := t0.Add(-time.Duration(k+1) * time.Hour)
		qTimes = append(qTimes, ts)
		evs = append(evs, event.Event{Device: "d1", Time: ts, AP: "wap3"})
	}
	evs = append(evs, event.Event{Device: "d1", Time: t0, AP: "wap3"})
	for i := 0; i < neighbors; i++ {
		d := event.DeviceID(fmt.Sprintf("n%03d", i))
		for k := 0; k < 64; k++ {
			ts := qTimes[(k*7+i*3)%len(qTimes)]
			ap := space.APID("wap3")
			if k%2 == 1 {
				ts = ts.Add(4 * time.Hour)
				ap = "wap4"
			} else {
				ts = ts.Add(2 * time.Minute)
			}
			evs = append(evs, event.Event{Device: d, Time: ts, AP: ap})
		}
		evs = append(evs, event.Event{Device: d, Time: t0, AP: "wap3"})
	}
	if _, err := st.Ingest(evs); err != nil {
		b.Fatal(err)
	}
	g3, _ := bld.RegionOf("wap3")
	return bld, st, g3
}

// BenchmarkColdLocate measures a full cold query — neighbor discovery,
// batched affinity sweep from raw history, posterior combination — for both
// variants. The store-backed provider has no cache, so every iteration pays
// the whole kernel.
func BenchmarkColdLocate(b *testing.B) {
	for _, variant := range []Variant{Independent, Dependent} {
		for _, n := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/neighbors=%d", variant, n), func(b *testing.B) {
				bld, st, g3 := historyScene(b, n)
				l := New(bld, st, NewStoreAffinity(st, 8*7*24*time.Hour), nil, Options{Variant: variant, UseStopConditions: false})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := l.Locate("d1", g3, t0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPairAffinityBatch contrasts the batched affinity sweep (one copy
// of the queried device's window + zero-copy candidate scans) against one
// PairAffinity call per candidate (one window copy per pair).
func BenchmarkPairAffinityBatch(b *testing.B) {
	_, st, _ := historyScene(b, 64)
	var cands []event.DeviceID
	for i := 0; i < 64; i++ {
		cands = append(cands, event.DeviceID(fmt.Sprintf("n%03d", i)))
	}
	start, end := t0.Add(-8*7*24*time.Hour), t0
	b.Run("batch", func(b *testing.B) {
		var out []float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = BatchDeviceAffinity(st, "d1", cands, start, end, out)
		}
	})
	b.Run("perpair", func(b *testing.B) {
		p := NewStoreAffinity(st, end.Sub(start))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				p.PairAffinity("d1", c, end)
			}
		}
	})
}

// BenchmarkDFineCluster isolates D-FINE's clustering cost: a scripted
// affinity provider (no history scans), so the measured work is the
// incremental union-find + cluster re-scoring versus the reference's
// from-scratch O(n³)-lookup re-clustering.
func BenchmarkDFineCluster(b *testing.B) {
	for _, n := range []int{32, 128} {
		bld := paperBuilding(b)
		st := store.New(0)
		aff := fixedAffinity{}
		conns := map[event.DeviceID]space.APID{"d1": "wap3"}
		var devs []event.DeviceID
		for i := 0; i < n; i++ {
			d := event.DeviceID(fmt.Sprintf("n%03d", i))
			devs = append(devs, d)
			conns[d] = "wap3"
			aff[pair("d1", d)] = 0.1 + 0.8*float64(i%7)/7
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j += 5 { // sparse intra-neighbor edges
				aff[pair(devs[i], devs[j])] = 0.3
			}
		}
		for d, ap := range conns {
			if _, err := st.Ingest([]event.Event{{Device: d, Time: t0, AP: ap}}); err != nil {
				b.Fatal(err)
			}
			if err := st.SetDelta(d, 10*time.Minute); err != nil {
				b.Fatal(err)
			}
		}
		g3, _ := bld.RegionOf("wap3")
		l := New(bld, st, aff, nil, Options{Variant: Dependent, UseStopConditions: false})
		b.Run(fmt.Sprintf("incremental/neighbors=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.Locate("d1", g3, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/neighbors=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.ReferenceLocate("d1", g3, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
