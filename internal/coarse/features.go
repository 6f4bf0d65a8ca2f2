package coarse

import (
	"sort"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// GapFeatures is the feature vector the paper extracts per gap (Section 3):
// begin/end time of day, duration, begin/end day of week, begin/end region,
// and the connection density ω — the average number of the device's logged
// events during the gap's time-of-day window per day of history.
type GapFeatures struct {
	Gap event.Gap

	StartTime float64 // seconds since midnight at gap start
	EndTime   float64 // seconds since midnight at gap end
	Duration  float64 // seconds
	StartDay  float64 // day of week at start, 0=Sunday
	EndDay    float64 // day of week at end
	// StartRegion / EndRegion are the regions of the bounding events,
	// encoded as indices into the building's region list.
	StartRegion float64
	EndRegion   float64
	// Density is ω.
	Density float64
}

// Vector flattens the features in a fixed order for the classifier.
func (f GapFeatures) Vector() []float64 {
	return []float64{
		f.StartTime, f.EndTime, f.Duration,
		f.StartDay, f.EndDay,
		f.StartRegion, f.EndRegion,
		f.Density,
	}
}

// NumFeatures is the dimensionality of GapFeatures.Vector.
const NumFeatures = 8

// featurize builds the gap's feature vector; count is the number of history
// events in the gap's time-of-day window, ω's numerator. The query path
// (windowCount) and training (daySeconds.count) count it over different
// windows and by different means.
func (l *Localizer) featurize(g event.Gap, count int) GapFeatures {
	return GapFeatures{
		Gap:         g,
		StartTime:   float64(secondOfDay(g.Start)),
		EndTime:     float64(secondOfDay(g.End)),
		Duration:    g.Duration().Seconds(),
		StartDay:    float64(g.Start.Weekday()),
		EndDay:      float64(g.End.Weekday()),
		StartRegion: l.regionIndexOfAP(g.PrevEvent.AP),
		EndRegion:   l.regionIndexOfAP(g.NextEvent.AP),
		Density:     float64(count) / float64(l.opts.HistoryDays),
	}
}

// regionIndexOfAP encodes an AP's region as its index in the sorted region
// list; unknown APs map to -1.
func (l *Localizer) regionIndexOfAP(ap space.APID) float64 {
	region, ok := l.building.RegionOf(ap)
	if !ok {
		return -1
	}
	return float64(l.regionIndex(region))
}

func (l *Localizer) regionIndex(g space.RegionID) int {
	if i, ok := l.regionIdx[g]; ok {
		return i
	}
	return -1
}

// windowCount counts the device's logged events in the N history days
// before the gap whose time of day falls inside the gap's time-of-day
// window. The history is visited zero-copy (counting retains nothing).
func (l *Localizer) windowCount(d event.DeviceID, g event.Gap) int {
	startSec := secondOfDay(g.Start)
	endSec := secondOfDay(g.End)
	count := 0
	l.scanHistory(d, g.Start, func(recs []event.Rec, _ []space.APID, _ time.Duration) {
		for _, r := range recs {
			if inDayWindow(nanosSecondOfDay(r.Nanos), startSec, endSec) {
				count++
			}
		}
	})
	return count
}

// daySeconds is a history's record times as sorted seconds of day.
// Training counts ω's events for every gap against one history, so it sorts
// once and counts each gap's window by binary search — the integer an
// inDayWindow scan of that history gives.
type daySeconds []int

func newDaySeconds(recs []event.Rec) daySeconds {
	s := make(daySeconds, len(recs))
	for i, r := range recs {
		s[i] = nanosSecondOfDay(r.Nanos)
	}
	sort.Ints(s)
	return s
}

// count returns how many seconds lie in the gap's time-of-day window,
// wrapping past midnight like inDayWindow.
func (s daySeconds) count(g event.Gap) int {
	start, end := secondOfDay(g.Start), secondOfDay(g.End)
	if start <= end {
		return sort.SearchInts(s, end+1) - sort.SearchInts(s, start)
	}
	return len(s) - sort.SearchInts(s, start) + sort.SearchInts(s, end+1)
}

// gapSpansDays reports whether the gap crosses midnight. The paper assumes
// gaps do not span multiple days; spanning gaps are handled by clamping the
// end-time feature but are excluded from training.
func gapSpansDays(g event.Gap) bool {
	ys, ms, ds := g.Start.Date()
	ye, me, de := g.End.Date()
	return ys != ye || ms != me || ds != de
}
