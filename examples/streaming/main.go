// Command streaming demonstrates LOCATER's online operation: connectivity
// events arrive as a real-time stream (the paper's ingestion engine), and
// location queries interleave with ingestion — the mode a live deployment
// (e.g. the TIPPERS testbed) runs in.
//
// The example replays a simulated day event-by-event through IngestOne,
// issuing a "where is everyone" query sweep every simulated two hours, and
// reports how answer quality improves as the day's context accumulates.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"locater"
	"locater/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example; it writes its report to w.
func run(w io.Writer) error {
	scenario, err := sim.DBH(3)
	if err != nil {
		return fmt.Errorf("building scenario: %w", err)
	}
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	const days = 8
	ds, err := sim.Generate(scenario.Config(start, days, 23))
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}

	sys, err := locater.New(locater.Config{
		Building:           ds.Building,
		Variant:            locater.IndependentVariant, // cheapest for live use
		EnableCache:        true,
		HistoryDays:        7,
		PromotionsPerRound: 8,
	})
	if err != nil {
		return fmt.Errorf("assembling LOCATER: %w", err)
	}

	// Pre-load the first 7 days as history (batch), then stream the last.
	lastDay := start.AddDate(0, 0, days-1)
	var history, live []locater.Event
	for _, e := range ds.Events {
		if e.Time.Before(lastDay) {
			history = append(history, e)
		} else {
			live = append(live, e)
		}
	}
	if err := sys.Ingest(history); err != nil {
		return fmt.Errorf("ingesting history: %w", err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	fmt.Fprintf(w, "preloaded %d historical events; streaming %d live events for %s\n",
		len(history), len(live), lastDay.Format("2006-01-02"))

	checkpoints := []time.Duration{9 * time.Hour, 11 * time.Hour, 13 * time.Hour, 15 * time.Hour, 17 * time.Hour}
	ci := 0
	ingested := 0
	fmt.Fprintln(w, "\ntime   events  inside(est)  inside(truth)  room-accuracy")
	for _, e := range live {
		for ci < len(checkpoints) && !e.Time.Before(lastDay.Add(checkpoints[ci])) {
			if err := report(w, sys, ds, lastDay.Add(checkpoints[ci]), ingested); err != nil {
				return err
			}
			ci++
		}
		if err := sys.IngestOne(e); err != nil {
			return fmt.Errorf("streaming ingest: %w", err)
		}
		ingested++
	}
	for ; ci < len(checkpoints); ci++ {
		if err := report(w, sys, ds, lastDay.Add(checkpoints[ci]), ingested); err != nil {
			return err
		}
	}

	cs := sys.CacheStats()
	fmt.Fprintf(w, "\nfinal state: %d events, %d affinity edges, affinity cache %d hits / %d misses (%d invalidations)\n",
		sys.NumEvents(), cs.GraphEdges, cs.Affinity.Hits, cs.Affinity.Misses, cs.Affinity.Invalidations)
	return nil
}

// report sweeps every known device at tq and writes the comparison against
// the oracle to w.
func report(w io.Writer, sys *locater.System, ds *sim.Dataset, tq time.Time, ingested int) error {
	insideEst, insideTruth, roomHits, roomTotal := 0, 0, 0, 0
	for _, p := range ds.People {
		res, err := sys.Locate(p.Device, tq)
		if err != nil {
			return fmt.Errorf("query at %v: %w", tq, err)
		}
		seg, ok := ds.Truth.At(p.Device, tq)
		if !ok {
			continue
		}
		if !res.Outside {
			insideEst++
		}
		if !seg.Outside {
			insideTruth++
			if !res.Outside {
				roomTotal++
				if res.Room == seg.Room {
					roomHits++
				}
			}
		}
	}
	acc := "n/a"
	if roomTotal > 0 {
		acc = fmt.Sprintf("%3.0f%%", 100*float64(roomHits)/float64(roomTotal))
	}
	fmt.Fprintf(w, "%s  %6d  %11d  %13d  %s\n",
		tq.Format("15:04"), ingested, insideEst, insideTruth, acc)
	return nil
}
