package wal

import (
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// benchBlockEvents builds one segment-sized run of events shaped like real
// WiFi connectivity logs: a handful of APs, near-periodic timestamps with
// jitter, dense IDs.
func benchBlockEvents(n int) []event.Event {
	base := time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)
	aps := []space.APID{"ap01", "ap02", "ap03", "ap07"}
	evs := make([]event.Event, n)
	t := base
	for i := range evs {
		evs[i] = event.Event{
			ID:     int64(1000 + i),
			Device: "bench-dev",
			Time:   t,
			AP:     aps[(i*7)%len(aps)],
		}
		t = t.Add(90*time.Second + time.Duration(i%11)*time.Second)
	}
	return evs
}

func BenchmarkEncodeSegment(b *testing.B) {
	evs := benchBlockEvents(32)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = EncodeSegment(buf[:0], evs, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

func BenchmarkDecodeSegment(b *testing.B) {
	evs := benchBlockEvents(32)
	payload, _ := EncodeSegment(nil, evs, 0)
	dst := make([]event.Event, 0, len(evs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = DecodeSegment(payload, "bench-dev", dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
