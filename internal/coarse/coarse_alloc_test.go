//go:build !race

package coarse

import "testing"

// The allocation gates run without -race, which instruments allocations.

// TestRegionAllocs: fine's neighbor resolution asks Region of every candidate
// in a gap. With the device's model cached, a closed gap already answered
// from its memo, like a validity hit, costs no allocation.
func TestRegionAllocs(t *testing.T) {
	b, st, _ := goldenStore(t)
	l := New(b, st, Options{})
	q := closedGapQueries(t, st)[0]
	if _, err := l.model(q.d); err != nil {
		t.Fatal(err)
	}
	valid := st.Events(q.d)[0].Time
	if n := testing.AllocsPerRun(100, func() { l.Region(q.d, q.tq) }); n != 0 {
		t.Errorf("Region on a memoized closed gap allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Region(q.d, valid) }); n != 0 {
		t.Errorf("Region in a validity interval allocates %v times per call, want 0", n)
	}
	if st := l.GapAnswerStats(); st.Misses != 1 || st.Hits < 100 {
		t.Errorf("memo hits=%d misses=%d, want one miss and the rest hits", st.Hits, st.Misses)
	}
}
