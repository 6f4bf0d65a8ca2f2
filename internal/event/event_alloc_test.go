//go:build !race

package event

import (
	"math/rand"
	"testing"
	"time"

	"locater/internal/space"
)

// The allocation gates run without -race, which instruments allocations.

// TestSortEventsAllocs: the store sorts every ingest head, segment merge and
// point-lookup neighborhood that arrives out of order, so SortEvents must not
// allocate.
func TestSortEventsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]Event, 64)
	for i := range base {
		base[i] = Event{
			ID:     int64(rng.Intn(8)),
			Device: DeviceID(string(rune('a' + rng.Intn(2)))),
			Time:   t0.Add(time.Duration(rng.Intn(16)) * time.Minute),
			AP:     space.APID(string(rune('x' + rng.Intn(2)))),
		}
	}
	evs := make([]Event, len(base))
	if n := testing.AllocsPerRun(100, func() {
		copy(evs, base)
		SortEvents(evs)
	}); n != 0 {
		t.Errorf("SortEvents allocates %v times per call, want 0", n)
	}
}

// TestTimelineAtAllocs: At returns the validity or the gap by value.
func TestTimelineAtAllocs(t *testing.T) {
	tl := Timeline{Device: "d", Delta: 10 * time.Minute, Events: []Event{
		mk("d", 0, "a"), mk("d", 100*time.Minute, "b"),
	}}
	for _, m := range []time.Duration{5, 50, 300} {
		tq := t0.Add(m * time.Minute)
		if n := testing.AllocsPerRun(100, func() { tl.At(tq) }); n != 0 {
			t.Errorf("At(t0+%dm) allocates %v times per call, want 0", m, n)
		}
	}
}
