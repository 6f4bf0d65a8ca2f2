package affgraph

import (
	"time"

	"locater/internal/event"
)

// WeightedEdge is one timestamped observation of an edge weight, as the
// tests build and read them.
type WeightedEdge struct {
	Weight float64
	Time   time.Time
}

// Weight collapses the edge between a and b at tq through WeightsBatch; 0
// when the edge does not exist.
func (g *Graph) Weight(a, b event.DeviceID, tq time.Time) float64 {
	var out [1]float64
	return g.WeightsBatch(a, []event.DeviceID{b}, tq, out[:0])[0]
}

// Observations returns a copy of the raw edge vector, with times in UTC.
func (g *Graph) Observations(a, b event.DeviceID) []WeightedEdge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	oa, okA := g.ords[a]
	ob, okB := g.ords[b]
	if !okA || !okB {
		return nil
	}
	obs := g.edges[edgeKey(oa, ob)].obs
	out := make([]WeightedEdge, len(obs))
	for i, o := range obs {
		out[i] = WeightedEdge{Weight: o.weight, Time: time.Unix(0, o.nanos).UTC()}
	}
	return out
}

// NumDevices returns the number of devices that appear in at least one
// edge: Merge interns a device only with an edge to another.
func (g *Graph) NumDevices() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.ords)
}
