// Command contact-tracing demonstrates the exposure-analysis application
// from the paper's introduction: given an individual who reports an
// infection, use cleaned room-level localization to find who shared rooms
// with them, for how long, and where — without any app installation or user
// cooperation, purely from WiFi association logs.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"locater"
	"locater/internal/sim"
)

// exposure accumulates co-location time between the index case and another
// device.
type exposure struct {
	device locater.DeviceID
	total  time.Duration
	rooms  map[locater.RoomID]time.Duration
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example; it writes its report to w.
func run(w io.Writer) error {
	scenario, err := sim.University(2)
	if err != nil {
		return fmt.Errorf("building university scenario: %w", err)
	}
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	const days = 14
	ds, err := sim.Generate(scenario.Config(start, days, 11))
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}

	sys, err := locater.New(locater.Config{
		Building:           ds.Building,
		Variant:            locater.DependentVariant,
		EnableCache:        true,
		HistoryDays:        10,
		PromotionsPerRound: 8,
	})
	if err != nil {
		return fmt.Errorf("assembling LOCATER: %w", err)
	}
	if err := sys.Ingest(ds.Events); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)

	// The index case: an undergraduate — they attend classes with many
	// others, so true co-location is frequent.
	var indexCase sim.Person
	for _, p := range ds.People {
		if p.Profile == "Undergraduate" {
			indexCase = p
			break
		}
	}
	fmt.Fprintf(w, "index case: %s (%s), tracing the last 2 days of a %d-day trace\n",
		indexCase.Device, indexCase.Profile, days)

	// Sweep the last two days in 15-minute steps; a contact is any device
	// LOCATER places in the same room at the same step.
	const step = 15 * time.Minute
	traceStart := start.AddDate(0, 0, days-2).Add(7 * time.Hour)
	traceEnd := start.AddDate(0, 0, days-1).Add(21 * time.Hour)

	contacts := map[locater.DeviceID]*exposure{}
	for tq := traceStart; tq.Before(traceEnd); tq = tq.Add(step) {
		if h := tq.Hour(); h < 7 || h >= 21 {
			continue
		}
		idxRes, err := sys.Locate(indexCase.Device, tq)
		if err != nil {
			return fmt.Errorf("locating index case: %w", err)
		}
		if idxRes.Outside {
			continue
		}
		for _, p := range ds.People {
			if p.Device == indexCase.Device {
				continue
			}
			res, err := sys.Locate(p.Device, tq)
			if err != nil {
				return fmt.Errorf("locating %s: %w", p.Device, err)
			}
			if res.Outside || res.Room != idxRes.Room {
				continue
			}
			c := contacts[p.Device]
			if c == nil {
				c = &exposure{device: p.Device, rooms: map[locater.RoomID]time.Duration{}}
				contacts[p.Device] = c
			}
			c.total += step
			c.rooms[res.Room] += step
		}
	}

	// Rank by cumulative exposure; report contacts above 30 minutes.
	var ranked []*exposure
	for _, c := range contacts {
		if c.total >= 30*time.Minute {
			ranked = append(ranked, c)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].total != ranked[j].total {
			return ranked[i].total > ranked[j].total
		}
		return ranked[i].device < ranked[j].device
	})

	fmt.Fprintf(w, "\n%d devices with ≥30 min of estimated co-location:\n", len(ranked))
	profiles := map[locater.DeviceID]string{}
	for _, p := range ds.People {
		profiles[p.Device] = p.Profile
	}
	shown := ranked
	if len(shown) > 10 {
		shown = shown[:10]
	}
	for _, c := range shown {
		fmt.Fprintf(w, "  %-12s %-14s exposure %-6v rooms: %s\n",
			c.device, profiles[c.device], c.total, summarizeRooms(c.rooms))
	}

	// Validate against ground truth: how many reported contacts truly
	// shared a room with the index case during the window?
	truePositives := 0
	for _, c := range ranked {
		if trulyCoLocated(ds, indexCase.Device, c.device, traceStart, traceEnd, step) {
			truePositives++
		}
	}
	if len(ranked) > 0 {
		fmt.Fprintf(w, "\nground-truth check: %d/%d reported contacts really shared a room (precision %.0f%%)\n",
			truePositives, len(ranked), 100*float64(truePositives)/float64(len(ranked)))
	} else {
		fmt.Fprintln(w, "\nno contacts above the exposure threshold")
	}
	return nil
}

func summarizeRooms(rooms map[locater.RoomID]time.Duration) string {
	type kv struct {
		r locater.RoomID
		d time.Duration
	}
	var all []kv
	for r, d := range rooms {
		all = append(all, kv{r, d})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].r < all[j].r
	})
	if len(all) > 2 {
		all = all[:2]
	}
	s := ""
	for i, e := range all {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s (%v)", e.r, e.d)
	}
	return s
}

// trulyCoLocated consults the oracle for any same-room step in the window.
func trulyCoLocated(ds *sim.Dataset, a, b locater.DeviceID, from, to time.Time, step time.Duration) bool {
	for tq := from; tq.Before(to); tq = tq.Add(step) {
		sa, okA := ds.Truth.At(a, tq)
		sb, okB := ds.Truth.At(b, tq)
		if okA && okB && !sa.Outside && !sb.Outside && sa.Room == sb.Room {
			return true
		}
	}
	return false
}
