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

// benchBlockRecs is benchBlockEvents as the store holds it: records with AP
// ordinals into the returned dictionary.
func benchBlockRecs(n int) ([]event.Rec, []space.APID) {
	var dict apDict
	return dict.recsOf(benchBlockEvents(n)), dict.ids
}

// BenchmarkEncodeSegment times the encode the store seals with
// (EncodeSegmentRecs).
func BenchmarkEncodeSegment(b *testing.B) {
	recs, aps := benchBlockRecs(32)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = EncodeSegmentRecs(buf[:0], recs, aps, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/event")
}

// BenchmarkDecodeSegment times the decode the store pages segments in with
// (DecodeSegmentRecs), its AP dictionary resolved through a map as the
// store's is.
func BenchmarkDecodeSegment(b *testing.B) {
	recs, aps := benchBlockRecs(32)
	payload, _ := EncodeSegmentRecs(nil, recs, aps, 0)
	ords := make(map[space.APID]uint32, len(aps))
	for i, ap := range aps {
		ords[ap] = uint32(i)
	}
	ord := func(ap space.APID) (uint32, error) { return ords[ap], nil }
	dst := make([]event.Rec, 0, len(recs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = DecodeSegmentRecs(payload, dst[:0], ord)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/event")
}
