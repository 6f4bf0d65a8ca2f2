// Command occupancy demonstrates the building-analytics application that
// motivates LOCATER in the paper's introduction: maintaining an accurate
// assessment of occupancy of different parts of a building for HVAC control
// and space planning.
//
// It simulates two weeks of an office building, then uses LOCATER to
// estimate per-region and per-room occupancy at a set of snapshot times on
// the last day, comparing the estimates against the simulator's ground
// truth.
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
	"locater/internal/space"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example; it writes its report to w.
func run(w io.Writer) error {
	scenario, err := sim.Office(2)
	if err != nil {
		return fmt.Errorf("building office scenario: %w", err)
	}
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	const days = 14
	ds, err := sim.Generate(scenario.Config(start, days, 7))
	if err != nil {
		return fmt.Errorf("generating workload: %w", err)
	}
	fmt.Fprintf(w, "office simulation: %d people, %d connectivity events over %d days\n",
		len(ds.People), len(ds.Events), days)

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

	lastDay := start.AddDate(0, 0, days-1)
	snapshots := []time.Duration{9 * time.Hour, 11 * time.Hour, 13 * time.Hour, 15 * time.Hour, 17 * time.Hour}

	fmt.Fprintln(w, "\nhourly occupancy estimate vs ground truth (whole building):")
	fmt.Fprintln(w, "time   LOCATER  truth  |err|")
	for _, offset := range snapshots {
		tq := lastDay.Add(offset)
		estimated := 0
		for _, p := range ds.People {
			res, err := sys.Locate(p.Device, tq)
			if err != nil {
				return fmt.Errorf("locating %s: %w", p.Device, err)
			}
			if !res.Outside {
				estimated++
			}
		}
		truth := 0
		for _, p := range ds.People {
			if seg, ok := ds.Truth.At(p.Device, tq); ok && !seg.Outside {
				truth++
			}
		}
		diff := estimated - truth
		if diff < 0 {
			diff = -diff
		}
		fmt.Fprintf(w, "%s  %7d  %5d  %5d\n", tq.Format("15:04"), estimated, truth, diff)
	}

	// Region-level heat map at 11:00 — the granularity HVAC zoning uses.
	tq := lastDay.Add(11 * time.Hour)
	regionCount := map[locater.RegionID]int{}
	roomCount := map[locater.RoomID]int{}
	for _, p := range ds.People {
		res, err := sys.Locate(p.Device, tq)
		if err != nil {
			return err
		}
		if !res.Outside {
			regionCount[res.Region]++
			roomCount[res.Room]++
		}
	}
	fmt.Fprintf(w, "\nregion occupancy at %s (top 5):\n", tq.Format("15:04"))
	printTop(w, regionCount, 5)

	truthOcc := ds.Truth.OccupancyAt(tq)
	fmt.Fprintln(w, "\nbusiest rooms at 11:00 — LOCATER vs truth:")
	fmt.Fprintf(w, "  LOCATER: %s\n", topRooms(roomCount, 3))
	fmt.Fprintf(w, "  truth:   %s\n", topRoomsTruth(truthOcc, 3))
	return nil
}

func printTop(w io.Writer, counts map[locater.RegionID]int, n int) {
	type kv struct {
		k locater.RegionID
		v int
	}
	var all []kv
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > n {
		all = all[:n]
	}
	for _, e := range all {
		fmt.Fprintf(w, "  %-14s %d occupants\n", e.k, e.v)
	}
}

func topRooms(counts map[locater.RoomID]int, n int) string {
	type kv struct {
		k locater.RoomID
		v int
	}
	var all []kv
	for k, v := range counts {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > n {
		all = all[:n]
	}
	s := ""
	for i, e := range all {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s(%d)", e.k, e.v)
	}
	return s
}

func topRoomsTruth(counts map[space.RoomID]int, n int) string {
	conv := map[locater.RoomID]int{}
	for k, v := range counts {
		conv[k] = v
	}
	return topRooms(conv, n)
}
