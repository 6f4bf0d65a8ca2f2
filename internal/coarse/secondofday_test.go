package coarse

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestNanosSecondOfDayMatchesClock: the second of day the query path reads
// off a record's Unix nanoseconds equals the one time.Time.Clock gives for
// the same instant in UTC — the zone the store returns times in — across
// pre-1970 times, day boundaries on both sides of the epoch, and the int64
// edges.
func TestNanosSecondOfDayMatchesClock(t *testing.T) {
	check := func(n int64) {
		t.Helper()
		if got, want := nanosSecondOfDay(n), secondOfDay(time.Unix(0, n).UTC()); got != want {
			t.Fatalf("nanosSecondOfDay(%d) = %d, Clock says %d (%v)", n, got, want, time.Unix(0, n).UTC())
		}
	}
	day := int64(24 * time.Hour)
	for _, n := range []int64{
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		0, 1, -1, 1e9 - 1, 1e9, -1e9, -1e9 + 1, -1e9 - 1,
		day, day - 1, -day, -day - 1, -day + 1,
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC).UnixNano(),
		time.Date(1900, 3, 1, 12, 30, 15, 0, time.UTC).UnixNano(),
		time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC).UnixNano(),
	} {
		check(n)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(int64(rng.Uint64()))
		check(rng.Int63n(200*365*day) - 100*365*day)
	}
}
