package event

import (
	"sort"
	"time"

	"locater/internal/space"
)

// refTimeline is the test oracle for the record kernels: a direct
// transcription of paper Section 2 (truncated validity intervals, gaps) and
// Appendix 9.1 (δ from same-AP spacings) over one device's events in
// (Time, ID, Device) order, written without records, ordinals or shortcuts.
type refTimeline struct {
	device DeviceID
	delta  time.Duration
	events []Event // sorted by newRefTimeline
}

func newRefTimeline(device DeviceID, delta time.Duration, events []Event) *refTimeline {
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	return &refTimeline{device: device, delta: delta, events: evs}
}

// validities returns the truncated validity interval of every event: e_n at
// t_n is valid in (t_n − δ, t_n + δ), each side shrunk to the neighboring
// event's timestamp where it would overlap it.
func (tl *refTimeline) validities() []Validity {
	out := make([]Validity, len(tl.events))
	for i, e := range tl.events {
		start := e.Time.Add(-tl.delta)
		end := e.Time.Add(tl.delta)
		if i > 0 {
			if prev := tl.events[i-1].Time; start.Before(prev) {
				start = prev
			}
		}
		if i < len(tl.events)-1 {
			if next := tl.events[i+1].Time; end.After(next) {
				end = next
			}
		}
		out[i] = Validity{Event: e, Start: start, End: end}
	}
	return out
}

// gaps returns (t_0 + δ, t_1 − δ) for every consecutive pair with
// t_0 + δ < t_1 − δ.
func (tl *refTimeline) gaps() []Gap {
	var out []Gap
	for i := 0; i+1 < len(tl.events); i++ {
		e0, e1 := tl.events[i], tl.events[i+1]
		start, end := e0.Time.Add(tl.delta), e1.Time.Add(-tl.delta)
		if start.Before(end) {
			out = append(out, Gap{Device: tl.device, Start: start, End: end, PrevEvent: e0, NextEvent: e1})
		}
	}
	return out
}

// at classifies t by scanning every validity, then every gap (endpoints
// included). Where validities overlap (δ wider than the spacing), t is
// credited to the latest event at or before it, else to the earliest event
// after it.
func (tl *refTimeline) at(t time.Time) (Validity, Gap, Where) {
	vals := tl.validities()
	best := -1
	for i, v := range vals {
		if v.Contains(t) && (best < 0 || !v.Event.Time.After(t)) {
			best = i
		}
	}
	if best >= 0 {
		return vals[best], Gap{}, InValidity
	}
	for _, g := range tl.gaps() {
		if !t.Before(g.Start) && !t.After(g.End) {
			return Validity{}, g, InGap
		}
	}
	return Validity{}, Gap{}, Unknown
}

// apAt is at's validity case reduced to the AP.
func (tl *refTimeline) apAt(t time.Time) (space.APID, bool) {
	v, _, w := tl.at(t)
	return v.Event.AP, w == InValidity
}

// refEstimateDelta is Appendix 9.1's estimator over events in any order:
// sort a copy, take the quantile of the positive same-AP spacings, clamp.
func refEstimateDelta(events []Event, quantile float64, minD, maxD, fallback time.Duration) time.Duration {
	if quantile <= 0 || quantile > 1 {
		quantile = 0.9
	}
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	var spacings []time.Duration
	for i := 0; i+1 < len(evs); i++ {
		if evs[i].AP == evs[i+1].AP {
			if d := evs[i+1].Time.Sub(evs[i].Time); d > 0 {
				spacings = append(spacings, d)
			}
		}
	}
	if len(spacings) < 2 {
		return fallback
	}
	sort.Slice(spacings, func(i, j int) bool { return spacings[i] < spacings[j] })
	d := spacings[int(quantile*float64(len(spacings)-1))]
	if d < minD {
		d = minD
	}
	if d > maxD {
		d = maxD
	}
	return d
}
