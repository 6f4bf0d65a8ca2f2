// Package event implements LOCATER's WiFi connectivity data model: the raw
// association events ⟨mac address, timestamp, wap⟩ logged by access points,
// the per-device temporal validity interval δ that turns sporadic events
// into covered time intervals, and the detection of gaps — the periods in
// which no event is valid for a device, which coarse-grained localization
// treats as missing values to repair (paper Section 2).
package event

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"locater/internal/space"
)

// DeviceID identifies a device by its MAC address.
type DeviceID string

// Event is one WiFi association event: device d connected to access point
// AP at time T. Events are logged by the wireless controller whenever a
// device associates, probes, or changes status, and therefore occur only
// sporadically even for stationary devices.
type Event struct {
	// ID is the event identifier (eid). Zero is valid for synthetic data;
	// the store assigns sequence numbers on ingest when ID == 0.
	ID int64
	// Device is the MAC address of the connected device.
	Device DeviceID
	// Time is the association timestamp.
	Time time.Time
	// AP is the access point that logged the association.
	AP space.APID
}

// String renders the event like the paper's Figure 1(b) rows.
func (e Event) String() string {
	return fmt.Sprintf("e%d{%s, %s, %s}", e.ID, e.Device, e.Time.Format("2006-01-02 15:04:05"), e.AP)
}

// Before reports whether e is ordered before f by (Time, ID, Device).
func (e Event) Before(f Event) bool {
	return e.Compare(f) < 0
}

// Compare orders e and f by (Time, ID, Device): negative when e comes
// first, positive when f does, zero when all three agree.
func (e Event) Compare(f Event) int {
	if c := e.Time.Compare(f.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(e.ID, f.ID); c != 0 {
		return c
	}
	return strings.Compare(string(e.Device), string(f.Device))
}

// SortEvents orders events by (Time, ID, Device) in place. slices.SortFunc
// runs the same pattern-defeating quicksort as sort.Slice, so the order is
// the same, without sort.Slice's reflect swapper: it allocates nothing.
func SortEvents(events []Event) {
	slices.SortFunc(events, Event.Compare)
}

// Rec is an event in the pointer-free form the store holds it in: the time
// as Unix nanoseconds, the ID, and the AP as an ordinal into a dictionary
// the holder owns. The device is implicit, because a Rec lives in one
// device's log. It weighs 24 bytes with padding, and a []Rec holds nothing
// the garbage collector has to scan.
type Rec struct {
	Nanos int64
	ID    int64
	AP    uint32
}

// MinTime and MaxTime are the first and last instants a Rec can hold:
// Unix nanoseconds math.MinInt64 and math.MaxInt64.
var (
	MinTime = time.Unix(0, math.MinInt64)
	MaxTime = time.Unix(0, math.MaxInt64)
)

// timeOf is the UTC time at Unix nanoseconds n.
func timeOf(n int64) time.Time { return time.Unix(0, n).UTC() }

// Before orders records by (Nanos, ID): within one device that is
// Event.Before's (Time, ID, Device) order.
func (r Rec) Before(o Rec) bool {
	return r.Compare(o) < 0
}

// Compare orders records by (Nanos, ID), as Before does.
func (r Rec) Compare(o Rec) int {
	if c := cmp.Compare(r.Nanos, o.Nanos); c != 0 {
		return c
	}
	return cmp.Compare(r.ID, o.ID)
}

// Event expands r into an Event of device d, its AP named by aps[r.AP].
// The time comes back in UTC, as the store and its logs return times.
func (r Rec) Event(d DeviceID, aps []space.APID) Event {
	return Event{ID: r.ID, Device: d, Time: timeOf(r.Nanos), AP: aps[r.AP]}
}

// Validity is the validity interval of a single event: the period during
// which the device is assumed to remain in the region covered by the event's
// AP. An event e_n at time t_n is valid in (t_n − δ, t_n + δ), truncated so
// that it does not overlap the timestamps of the neighboring events of the
// same device (paper Section 2, Figure 2).
type Validity struct {
	Event Event
	Start time.Time
	End   time.Time
}

// Contains reports whether t lies inside the validity interval. The interval
// is treated as closed, matching the paper's containment test
// t_n − δ ≤ t_q ≤ t_n + δ.
func (v Validity) Contains(t time.Time) bool {
	return !t.Before(v.Start) && !t.After(v.End)
}

// Gap is a maximal period in which no connectivity event is valid for a
// device: Start = t_0 + δ (end of the previous event's validity) and
// End = t_1 − δ (start of the next event's validity). Gaps are the missing
// values that coarse-grained localization detects and repairs.
type Gap struct {
	Device DeviceID
	// Start and End delimit the gap (gap.t_str, gap.t_end).
	Start time.Time
	End   time.Time
	// PrevEvent and NextEvent are the consecutive connectivity events
	// e_0, e_1 between which the gap occurs.
	PrevEvent Event
	NextEvent Event
}

// Duration returns δ(gap) = End − Start.
func (g Gap) Duration() time.Duration { return g.End.Sub(g.Start) }

// String renders the gap for diagnostics.
func (g Gap) String() string {
	return fmt.Sprintf("gap{%s, %s → %s, %s}", g.Device,
		g.Start.Format("2006-01-02 15:04:05"), g.End.Format("15:04:05"), g.Duration())
}

// Where says where a query time falls on a device's log (see At).
type Where uint8

const (
	// Unknown: the log is empty, or t precedes the first event's validity
	// or follows the last event's.
	Unknown Where = iota
	// InValidity: t lies inside an event's validity interval.
	InValidity
	// InGap: t lies inside a gap.
	InGap
)

// The functions below evaluate Section 2 and Appendix 9.1 over one
// device's log as the store holds it: records in (Nanos, ID) order, APs as
// ordinals into aps, and δ > 0. Boundaries are computed in time.Time from
// the records' UTC times, never as nanoseconds ± δ (which could wrap at the
// int64 bounds), and only the records an answer names become Events.

// FirstAfter returns the index of the first record whose time is after t
// (len(recs) when none is), for any t, including times outside int64
// nanoseconds.
func FirstAfter(recs []Rec, t time.Time) int {
	switch {
	case t.Before(MinTime):
		return 0
	case t.After(MaxTime):
		return len(recs)
	}
	tN := t.UnixNano()
	return sort.Search(len(recs), func(i int) bool { return recs[i].Nanos > tN })
}

// validityOf returns the truncated validity interval of recs[i]: its time
// t_i ± δ, with each side cut back to the neighboring record's time where
// it would overlap it (paper Section 2: e_1 valid in (t_1 − δ, t_2)).
func validityOf(recs []Rec, delta time.Duration, i int) (start, end time.Time) {
	ti := timeOf(recs[i].Nanos)
	start, end = ti.Add(-delta), ti.Add(delta)
	if i > 0 {
		if prev := timeOf(recs[i-1].Nanos); start.Before(prev) {
			start = prev
		}
	}
	if i+1 < len(recs) {
		if next := timeOf(recs[i+1].Nanos); end.After(next) {
			end = next
		}
	}
	return start, end
}

// validAt returns the index of the record whose validity interval holds t,
// with that interval (its Event left zero), or i = −1. Only the last record
// at or before t and the first after it (index after) can hold it.
func validAt(recs []Rec, delta time.Duration, t time.Time) (i int, v Validity, after int) {
	after = FirstAfter(recs, t)
	for _, j := range [2]int{after - 1, after} {
		if j >= 0 && j < len(recs) {
			if v.Start, v.End = validityOf(recs, delta, j); v.Contains(t) {
				return j, v, after
			}
		}
	}
	return -1, Validity{}, after
}

// gapBetween returns the gap between consecutive records r0 and r1,
// (t_0 + δ, t_1 − δ), when t_0 + δ < t_1 − δ.
func gapBetween(d DeviceID, r0, r1 Rec, aps []space.APID, delta time.Duration) (Gap, bool) {
	start, end := timeOf(r0.Nanos).Add(delta), timeOf(r1.Nanos).Add(-delta)
	if !start.Before(end) {
		return Gap{}, false
	}
	return Gap{Device: d, Start: start, End: end, PrevEvent: r0.Event(d, aps), NextEvent: r1.Event(d, aps)}, true
}

// At classifies the query time t against device d's log, returning by
// value (so a lookup allocates nothing) the validity interval or the gap
// that holds t, and which of the two it is:
//
//   - InValidity when t lies inside some event's validity interval (the
//     device's coarse location is then the region of that event's AP);
//   - InGap when t falls inside a gap (missing value to repair), its
//     endpoints included;
//   - Unknown when the log is empty, or t precedes the first event's
//     validity or follows the last event's — the log carries no
//     information there, and the caller decides how to treat the device
//     (LOCATER treats it as outside).
//
// The result that does not hold is the zero value. At reads only the two
// records on each side of t, so recs may be just that neighborhood of the
// log.
func At(d DeviceID, recs []Rec, aps []space.APID, delta time.Duration, t time.Time) (Validity, Gap, Where) {
	i, v, after := validAt(recs, delta, t)
	if i >= 0 {
		v.Event = recs[i].Event(d, aps)
		return v, Gap{}, InValidity
	}
	// Between two records and in neither's validity, t lies inside their
	// gap: past t_0 + δ and before t_1 − δ.
	if after > 0 && after < len(recs) {
		if g, ok := gapBetween(d, recs[after-1], recs[after], aps, delta); ok {
			return Validity{}, g, InGap
		}
	}
	return Validity{}, Gap{}, Unknown
}

// APAt returns the AP ordinal of the record whose validity interval holds
// t, if any: At's validity case without expanding the record. It is the
// per-neighbor "online" test the fine stage issues for every candidate
// device of every query.
func APAt(recs []Rec, delta time.Duration, t time.Time) (uint32, bool) {
	i, _, _ := validAt(recs, delta, t)
	if i < 0 {
		return 0, false
	}
	return recs[i].AP, true
}

// Gaps detects every gap in device d's log: for consecutive events e_0, e_1
// with t_0 + δ < t_1 − δ there is a gap (t_0 + δ, t_1 − δ). The returned
// gaps are disjoint and ordered.
func Gaps(d DeviceID, recs []Rec, aps []space.APID, delta time.Duration) []Gap {
	var out []Gap
	for i := 1; i < len(recs); i++ {
		if g, ok := gapBetween(d, recs[i-1], recs[i], aps, delta); ok {
			out = append(out, g)
		}
	}
	return out
}

// EstimateDelta estimates the validity interval δ(d) for a device from its
// log, as sketched in Appendix 9.1: while a device stays in one place its
// log shows how often it reconnects, so δ is taken from the distribution
// of same-AP inter-event spacings. We use the given quantile (e.g. 0.9) of
// consecutive same-AP inter-arrival times, clamped to [min, max]. With fewer
// than two usable samples the fallback value is returned. recs must be in
// (Nanos, ID) order; they are read in place.
func EstimateDelta(recs []Rec, quantile float64, minD, maxD, fallback time.Duration) time.Duration {
	if quantile <= 0 || quantile > 1 {
		quantile = 0.9
	}
	var spacings []time.Duration
	for i := 1; i < len(recs); i++ {
		if recs[i].AP == recs[i-1].AP {
			if d := timeOf(recs[i].Nanos).Sub(timeOf(recs[i-1].Nanos)); d > 0 {
				spacings = append(spacings, d)
			}
		}
	}
	if len(spacings) < 2 {
		return fallback
	}
	slices.Sort(spacings)
	return min(max(spacings[int(quantile*float64(len(spacings)-1))], minD), maxD)
}
