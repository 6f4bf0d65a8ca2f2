// Command quickstart demonstrates LOCATER end to end on the paper's
// motivating example (Figure 1): a small office floor with four WiFi access
// points, a handful of devices, and queries that exercise both cleaning
// stages — a validity hit, a gap repair (missing-value cleaning), and a
// room disambiguation.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"locater"
	"locater/internal/sim"
	"locater/internal/space"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example; it writes its report to w.
func run(w io.Writer) error {
	// A building like Figure 1(a): 40 rooms, 4 APs with overlapping
	// coverage, every 8th room public (conference rooms, lounges).
	building, err := sim.GridBuilding("quick", 40, 4, 14, 8)
	if err != nil {
		return fmt.Errorf("building space model: %w", err)
	}

	// Simulate two weeks of movement for a small population so LOCATER
	// has history to learn gap patterns and device affinities from.
	scenario := sim.Scenario{
		Name:     "quickstart",
		Building: building,
		Profiles: []sim.Profile{{
			Name: "staff", Count: 12, HasOffice: true, BaseStay: 0.8,
			PresenceProb: 0.9,
			ArrivalMean:  9 * time.Hour, ArrivalStd: 30 * time.Minute,
			DepartureMean: 17 * time.Hour, DepartureStd: 45 * time.Minute,
			AttendProb: 0.8, MidDayExitProb: 0.4,
			EmitPeriod: 8 * time.Minute, EmitProb: 0.75,
		}},
		Events: []sim.EventTemplate{{
			Name: "weekly-sync", Room: firstPublic(building),
			Start: 11 * time.Hour, Duration: time.Hour,
			Days:     []time.Weekday{time.Tuesday, time.Thursday},
			Profiles: map[string]float64{"staff": 0.8},
			Capacity: 10,
		}},
	}
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC) // a Monday
	ds, err := sim.Generate(scenario.Config(start, 14, 42))
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}
	fmt.Fprintf(w, "simulated %d connectivity events for %d devices over 14 days\n",
		len(ds.Events), len(ds.People))

	// Assemble LOCATER: D-LOCATER with caching, the paper's defaults.
	sys, err := locater.New(locater.Config{
		Building:    building,
		Variant:     locater.DependentVariant,
		EnableCache: true,
	})
	if err != nil {
		return fmt.Errorf("assembling LOCATER: %w", err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		return fmt.Errorf("ingesting events: %w", err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)

	// Query three interesting moments for the first device on the last
	// simulated day: mid-morning (usually a validity hit or short-gap
	// repair), lunch (often outside), and late evening (outside).
	dev := ds.People[0].Device
	fmt.Fprintf(w, "\ndevice %s (preferred room %s):\n", dev, ds.People[0].BaseRoom)
	day := start.AddDate(0, 0, 10)
	for _, q := range []struct {
		label string
		t     time.Time
	}{
		{"10:30", day.Add(10*time.Hour + 30*time.Minute)},
		{"12:45", day.Add(12*time.Hour + 45*time.Minute)},
		{"23:00", day.Add(23 * time.Hour)},
	} {
		res, err := sys.Locate(dev, q.t)
		if err != nil {
			return fmt.Errorf("query at %s: %w", q.label, err)
		}
		truth, _ := ds.Truth.At(dev, q.t)
		fmt.Fprintf(w, "  %s → %-28s truth: %s\n", q.label, describe(res), describeTruth(truth))
	}

	cs := sys.CacheStats()
	fmt.Fprintf(w, "\ncaching engine: %d affinity-graph edges, affinity cache %d hits / %d misses, result cache %d hits / %d misses\n",
		cs.GraphEdges, cs.Affinity.Hits, cs.Affinity.Misses, cs.Results.Hits, cs.Results.Misses)
	return nil
}

func describe(r locater.Result) string {
	if r.Outside {
		return "outside the building"
	}
	kind := "validity"
	if r.Repaired {
		kind = "repaired"
	}
	return fmt.Sprintf("room %s (%s, p=%.2f)", r.Room, kind, r.RoomProbability)
}

func describeTruth(t sim.TruthSegment) string {
	if t.Outside {
		return "outside"
	}
	return string(t.Room)
}

func firstPublic(b *space.Building) space.RoomID {
	for _, r := range b.Rooms() {
		if b.IsPublic(r) {
			return r
		}
	}
	return b.Rooms()[0]
}
