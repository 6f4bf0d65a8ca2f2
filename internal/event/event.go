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
	return Event{ID: r.ID, Device: d, Time: time.Unix(0, r.Nanos).UTC(), AP: aps[r.AP]}
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

// Contains reports whether t falls strictly inside the gap. Containment is
// exclusive of the endpoints because the endpoints belong to the adjacent
// validity intervals.
func (g Gap) Contains(t time.Time) bool {
	return t.After(g.Start) && t.Before(g.End)
}

// String renders the gap for diagnostics.
func (g Gap) String() string {
	return fmt.Sprintf("gap{%s, %s → %s, %s}", g.Device,
		g.Start.Format("2006-01-02 15:04:05"), g.End.Format("15:04:05"), g.Duration())
}

// Timeline is the per-device view of a connectivity log: the device's events
// in time order plus the validity interval parameter δ(d). It exposes the
// validity/gap structure of Figure 2.
type Timeline struct {
	Device DeviceID
	Delta  time.Duration
	// Events must be sorted by time; NewTimeline sorts a copy.
	Events []Event
}

// NewTimeline copies and sorts the device's events and attaches δ.
// It returns an error when delta is not positive or events from other
// devices are mixed in.
func NewTimeline(device DeviceID, delta time.Duration, events []Event) (*Timeline, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("event: non-positive validity interval %v for device %s", delta, device)
	}
	evs := make([]Event, 0, len(events))
	for _, e := range events {
		if e.Device != device {
			return nil, fmt.Errorf("event: timeline for %s given event of %s", device, e.Device)
		}
		evs = append(evs, e)
	}
	SortEvents(evs)
	return &Timeline{Device: device, Delta: delta, Events: evs}, nil
}

// Validities computes the truncated validity interval of every event.
// Event e_n at t_n is valid in (t_n − δ, t_n + δ); when that interval would
// overlap a neighboring event of the same device the boundary shrinks to the
// neighbor's timestamp (paper Section 2: e_1 valid in (t_1 − δ, t_2)).
func (tl *Timeline) Validities() []Validity {
	out := make([]Validity, len(tl.Events))
	for i, e := range tl.Events {
		start := e.Time.Add(-tl.Delta)
		end := e.Time.Add(tl.Delta)
		if i > 0 {
			prev := tl.Events[i-1].Time
			if start.Before(prev) {
				start = prev
			}
		}
		if i < len(tl.Events)-1 {
			next := tl.Events[i+1].Time
			if end.After(next) {
				end = next
			}
		}
		out[i] = Validity{Event: e, Start: start, End: end}
	}
	return out
}

// Gaps detects every gap in the timeline: for consecutive events e_0, e_1
// with t_0 + δ < t_1 − δ there is a gap (t_0 + δ, t_1 − δ). The returned
// gaps are disjoint and ordered.
func (tl *Timeline) Gaps() []Gap {
	var out []Gap
	for i := 0; i+1 < len(tl.Events); i++ {
		e0, e1 := tl.Events[i], tl.Events[i+1]
		start := e0.Time.Add(tl.Delta)
		end := e1.Time.Add(-tl.Delta)
		if start.Before(end) {
			out = append(out, Gap{
				Device:    tl.Device,
				Start:     start,
				End:       end,
				PrevEvent: e0,
				NextEvent: e1,
			})
		}
	}
	return out
}

// Where says where a query time falls on a timeline (see Timeline.At).
type Where uint8

const (
	// Unknown: the timeline is empty, or t precedes the first event's
	// validity or follows the last event's.
	Unknown Where = iota
	// InValidity: t lies inside an event's validity interval.
	InValidity
	// InGap: t lies inside a gap.
	InGap
)

// At classifies the query time t against the timeline, returning by value
// (so a lookup allocates nothing) the validity interval or the gap that
// holds t, and which of the two it is:
//
//   - InValidity when t lies inside some event's validity interval (the
//     device's coarse location is then the region of that event's AP);
//   - InGap when t falls inside a gap (missing value to repair);
//   - Unknown when t precedes the first event's validity or follows the
//     last event's validity — the log carries no information there, and the
//     caller decides how to treat the device (LOCATER treats it as outside).
//
// The result that does not hold is the zero value.
func (tl *Timeline) At(t time.Time) (Validity, Gap, Where) {
	n := len(tl.Events)
	if n == 0 {
		return Validity{}, Gap{}, Unknown
	}
	// Find the first event with Time > t. The validity of either that event
	// or the last one at or before t may contain t.
	idx := sort.Search(n, func(i int) bool { return tl.Events[i].Time.After(t) })
	if idx > 0 {
		if v := tl.validityAt(idx - 1); v.Contains(t) {
			return v, Gap{}, InValidity
		}
	}
	if idx < n {
		if v := tl.validityAt(idx); v.Contains(t) {
			return v, Gap{}, InValidity
		}
	}
	// Not inside any validity: check the enclosing gap if one exists.
	if idx > 0 && idx < n {
		e0, e1 := tl.Events[idx-1], tl.Events[idx]
		start := e0.Time.Add(tl.Delta)
		end := e1.Time.Add(-tl.Delta)
		if start.Before(end) {
			g := Gap{Device: tl.Device, Start: start, End: end, PrevEvent: e0, NextEvent: e1}
			if g.Contains(t) || t.Equal(g.Start) || t.Equal(g.End) {
				return Validity{}, g, InGap
			}
		}
	}
	return Validity{}, Gap{}, Unknown
}

// APAt returns the AP of the event whose validity interval contains t, if
// any: At(t) restricted to the validity case. It is the per-neighbor
// "online" test the fine stage issues for every candidate device of every
// query.
func (tl *Timeline) APAt(t time.Time) (space.APID, bool) {
	n := len(tl.Events)
	if n == 0 {
		return "", false
	}
	idx := sort.Search(n, func(i int) bool { return tl.Events[i].Time.After(t) })
	if idx > 0 {
		if v := tl.validityAt(idx - 1); v.Contains(t) {
			return v.Event.AP, true
		}
	}
	if idx < n {
		if v := tl.validityAt(idx); v.Contains(t) {
			return v.Event.AP, true
		}
	}
	return "", false
}

// validityAt computes the truncated validity of the i-th event only.
func (tl *Timeline) validityAt(i int) Validity {
	e := tl.Events[i]
	start := e.Time.Add(-tl.Delta)
	end := e.Time.Add(tl.Delta)
	if i > 0 {
		prev := tl.Events[i-1].Time
		if start.Before(prev) {
			start = prev
		}
	}
	if i < len(tl.Events)-1 {
		next := tl.Events[i+1].Time
		if end.After(next) {
			end = next
		}
	}
	return Validity{Event: e, Start: start, End: end}
}

// EventsBetween returns the timeline's events with Start ≤ t ≤ End,
// using binary search.
func (tl *Timeline) EventsBetween(start, end time.Time) []Event {
	n := len(tl.Events)
	lo := sort.Search(n, func(i int) bool { return !tl.Events[i].Time.Before(start) })
	hi := sort.Search(n, func(i int) bool { return tl.Events[i].Time.After(end) })
	if lo >= hi {
		return nil
	}
	return tl.Events[lo:hi]
}

// EstimateDelta estimates the validity interval δ(d) for a device from its
// event log, as sketched in Appendix 9.1: while a device stays in one place
// its log shows how often it reconnects, so δ is taken from the distribution
// of same-AP inter-event spacings. We use the given quantile (e.g. 0.9) of
// consecutive same-AP inter-arrival times, clamped to [min, max]. With fewer
// than two usable samples the fallback value is returned.
func EstimateDelta(events []Event, quantile float64, minD, maxD, fallback time.Duration) time.Duration {
	if quantile <= 0 || quantile > 1 {
		quantile = 0.9
	}
	evs := make([]Event, len(events))
	copy(evs, events)
	SortEvents(evs)
	var spacings []time.Duration
	for i := 0; i+1 < len(evs); i++ {
		if evs[i].AP == evs[i+1].AP {
			d := evs[i+1].Time.Sub(evs[i].Time)
			if d > 0 {
				spacings = append(spacings, d)
			}
		}
	}
	if len(spacings) < 2 {
		return fallback
	}
	sort.Slice(spacings, func(i, j int) bool { return spacings[i] < spacings[j] })
	idx := int(quantile * float64(len(spacings)-1))
	d := spacings[idx]
	if d < minD {
		d = minD
	}
	if d > maxD {
		d = maxD
	}
	return d
}
