package store

import (
	"fmt"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// seedBench fills a store with n events across k devices.
func seedBench(b *testing.B, n, k int) *Store {
	b.Helper()
	s := New(0)
	evs := make([]event.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, event.Event{
			Device: event.DeviceID(fmt.Sprintf("d%03d", i%k)),
			Time:   t0.Add(time.Duration(i) * time.Minute),
			AP:     "ap",
		})
	}
	if _, err := s.Ingest(evs); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkIngestBatch(b *testing.B) {
	evs := make([]event.Event, 10000)
	for i := range evs {
		evs[i] = event.Event{
			Device: event.DeviceID(fmt.Sprintf("d%03d", i%50)),
			Time:   t0.Add(time.Duration(i) * time.Second),
			AP:     "ap",
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(0)
		if _, err := s.Ingest(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(evs)))
}

// benchDevices returns seedBench's device names, built outside the timed
// loop.
func benchDevices(n int) []event.DeviceID {
	devs := make([]event.DeviceID, n)
	for i := range devs {
		devs[i] = event.DeviceID(fmt.Sprintf("d%03d", i))
	}
	return devs
}

func BenchmarkEventsBetween(b *testing.B) {
	s := seedBench(b, 100000, 100)
	devs := benchDevices(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := t0.Add(time.Duration(i%1000) * time.Hour)
		s.EventsBetween(devs[i%100], start, start.Add(8*time.Hour))
	}
}

func BenchmarkAt(b *testing.B) {
	s := seedBench(b, 50000, 50)
	devs := benchDevices(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.At(devs[i%50], t0.Add(time.Duration(i%50000)*time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
}

// seedActiveWindow builds a store with n devices whose history is spread
// over a day, plus a fixed-size active set with one extra event inside the
// benchmark's query window — so the number of active devices stays constant
// while the total device count scales.
func seedActiveWindow(b *testing.B, n, active int) (*Store, time.Time, time.Time) {
	b.Helper()
	s := New(0)
	winStart := t0.Add(30 * 24 * time.Hour)
	evs := make([]event.Event, 0, n+active)
	for i := 0; i < n; i++ {
		evs = append(evs, event.Event{
			Device: event.DeviceID(fmt.Sprintf("d%06d", i)),
			AP:     space.APID(fmt.Sprintf("ap%02d", i%16)),
			Time:   t0.Add(time.Duration(i%1440) * time.Minute),
		})
	}
	for i := 0; i < active; i++ {
		evs = append(evs, event.Event{
			Device: event.DeviceID(fmt.Sprintf("d%06d", i*(n/active))),
			AP:     space.APID(fmt.Sprintf("ap%02d", i%16)),
			Time:   winStart.Add(time.Duration(i%30) * time.Minute),
		})
	}
	if _, err := s.Ingest(evs); err != nil {
		b.Fatal(err)
	}
	return s, winStart.Add(-5 * time.Minute), winStart.Add(35 * time.Minute)
}

// BenchmarkActiveDevices scales the total device count at a fixed active
// set (64 devices): served from the occupancy index, the cost should stay
// near-constant.
func BenchmarkActiveDevices(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			s, start, end := seedActiveWindow(b, n, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.ActiveDevicesAt(nil, start, end); len(got) != 64 {
					b.Fatalf("active = %d, want 64", len(got))
				}
			}
		})
	}
}

// BenchmarkActiveDevicesAt measures the region-scoped lookup the
// fine-grained neighbor discovery issues: only 4 of 16 APs are in scope.
func BenchmarkActiveDevicesAt(b *testing.B) {
	aps := []space.APID{"ap00", "ap01", "ap02", "ap03"}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			s, start, end := seedActiveWindow(b, n, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.ActiveDevicesAt(aps, start, end); len(got) == 0 {
					b.Fatal("no active devices in scope")
				}
			}
		})
	}
}
