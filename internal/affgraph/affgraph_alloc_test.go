//go:build !race

package affgraph

import (
	"fmt"
	"testing"
	"time"

	"locater/internal/event"
)

// The allocation gates run without -race, which instruments allocations.

// TestGraphCollapseAllocs: once its out buffer is large enough, a warm
// WeightsBatch allocates nothing, and OrderNeighbors allocates only the
// slice it returns — on memo hits, and at a fresh query time, where every
// edge is collapsed afresh.
func TestGraphCollapseAllocs(t *testing.T) {
	g := New(Options{})
	var cands []event.DeviceID
	for i := 0; i < 20; i++ {
		n := event.DeviceID(fmt.Sprintf("n%d", i))
		cands = append(cands, n)
		for j := 0; j < 8; j++ {
			g.Merge([]Edge{{From: "q", To: n, Weight: float64(i+j) / 30}}, t0.Add(time.Duration(i*j)*time.Minute))
		}
	}
	cands = append(cands, "none")
	tq := t0.Add(time.Hour)
	out := g.WeightsBatch("q", cands, tq, nil)
	g.OrderNeighbors("q", cands, tq)
	if n := testing.AllocsPerRun(100, func() { out = g.WeightsBatch("q", cands, tq, out) }); n != 0 {
		t.Errorf("WeightsBatch allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.OrderNeighbors("q", cands, tq) }); n != 1 {
		t.Errorf("OrderNeighbors allocates %v times per call, want 1", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		out = g.WeightsBatch("q", cands, tq.Add(time.Duration(i)*time.Minute), out)
	}); n != 0 {
		t.Errorf("WeightsBatch at a fresh t_q allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		i++
		g.OrderNeighbors("q", cands, tq.Add(time.Duration(i)*time.Minute))
	}); n != 1 {
		t.Errorf("OrderNeighbors at a fresh t_q allocates %v times per call, want 1", n)
	}
}
