package store

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/space"
)

// corruptFuzzEvents is the fixed history FuzzStoreRefusesCorruptPayload
// seals: device d sealed into four 16-event segments, device e beside it so
// neighbor discovery has a device that stays readable.
func corruptFuzzEvents() []event.Event {
	var evs []event.Event
	for i := 0; i < 64; i++ {
		evs = append(evs, mk("d", time.Duration(i)*3*time.Minute, fmt.Sprintf("a%d", i%3)))
		evs = append(evs, mk("e", time.Duration(i)*5*time.Minute+time.Minute, fmt.Sprintf("a%d", i%2)))
	}
	for i := range evs {
		evs[i].ID = int64(i + 1)
	}
	return evs
}

// corruptFuzzStore seals corruptFuzzEvents into a fresh in-memory tier.
func corruptFuzzStore(t testing.TB) (*Store, SegmentBackend) {
	backend := NewMemorySegmentBackend()
	s := New(0)
	if err := s.ConfigureSegments(SegmentConfig{MaxEvents: 16, Backend: backend}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(corruptFuzzEvents()); err != nil {
		t.Fatal(err)
	}
	return s, backend
}

// FuzzStoreRefusesCorruptPayload replaces one of d's sealed payloads with
// fuzzed bytes and runs every read the query path makes. None may panic,
// and each must either answer exactly like a plain-slice oracle or refuse —
// an empty window, an At error, offline, no event, d missing from the
// neighbor set — with the refusal counted in DecodeFailures or LookupErrors.
func FuzzStoreRefusesCorruptPayload(f *testing.F) {
	_, backend := corruptFuzzStore(f)
	for seq := uint64(1); seq <= 4; seq++ {
		p, err := backend.Get("d", seq)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(seq-1), p)
		flipped := slices.Clone(p)
		flipped[len(p)/2] ^= 0x40
		f.Add(uint8(seq-1), flipped)
		f.Add(uint8(seq-1), p[:len(p)-9])
	}
	oracle := New(0)
	if _, err := oracle.Ingest(corruptFuzzEvents()); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		s, backend := corruptFuzzStore(t)
		if err := backend.Put("d", uint64(which%4)+1, payload); err != nil {
			t.Fatal(err)
		}
		refusals := func() int64 {
			st := s.SegmentStats()
			return st.DecodeFailures + st.LookupErrors
		}
		for m := -10; m < 200; m += 7 {
			tq := t0.Add(time.Duration(m) * time.Minute)
			end := tq.Add(20 * time.Minute)

			before := refusals()
			got, want := s.EventsBetween("d", tq, end), oracle.EventsBetween("d", tq, end)
			if refused := refusals() > before; !eventsEqual(got, want) && (!refused || len(got) != 0) {
				t.Fatalf("EventsBetween(d, %v, %v) = %d events, oracle %d, refused %v", tq, end, len(got), len(want), refused)
			}

			before = refusals()
			v, g, w, err := s.At("d", tq)
			ov, og, ow, _ := oracle.At("d", tq)
			if refused := refusals() > before; err != nil {
				if !refused {
					t.Fatalf("At(d, %v) failed without a counted refusal: %v", tq, err)
				}
			} else if w != ow || !eventsEqual([]event.Event{v.Event, g.PrevEvent, g.NextEvent}, []event.Event{ov.Event, og.PrevEvent, og.NextEvent}) ||
				!v.Start.Equal(ov.Start) || !v.End.Equal(ov.End) || !g.Start.Equal(og.Start) || !g.End.Equal(og.End) {
				t.Fatalf("At(d, %v) = (%v, %v, %d), oracle (%v, %v, %d)", tq, v, g, w, ov, og, ow)
			}

			before = refusals()
			ap, ok := s.CurrentAP("d", tq)
			oap, ook := oracle.CurrentAP("d", tq)
			if refused := refusals() > before; (ap != oap || ok != ook) && (!refused || ok) {
				t.Fatalf("CurrentAP(d, %v) = %v/%v, oracle %v/%v, refused %v", tq, ap, ok, oap, ook, refused)
			}

			before = refusals()
			e, found := s.LastEventAtOrBefore("d", tq)
			oe, ofound := oracle.LastEventAtOrBefore("d", tq)
			if refused := refusals() > before; (!eventsEqual([]event.Event{e}, []event.Event{oe}) || found != ofound) && (!refused || found) {
				t.Fatalf("LastEventAtOrBefore(d, %v) = %v/%v, oracle %v/%v, refused %v", tq, e, found, oe, ofound, refused)
			}

			for _, aps := range [][]space.APID{nil, {"a1"}} {
				before = refusals()
				got := s.ActiveDevicesAt(aps, tq, end)
				want := oracle.ActiveDevicesAt(aps, tq, end)
				withoutD := slices.DeleteFunc(slices.Clone(want), func(d event.DeviceID) bool { return d == "d" })
				if refused := refusals() > before; !slices.Equal(got, want) && (!refused || !slices.Equal(got, withoutD)) {
					t.Fatalf("ActiveDevicesAt(%v, %v, %v) = %v, oracle %v, refused %v", aps, tq, end, got, want, refused)
				}
			}
		}
	})
}
