package affgraph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"locater/internal/event"
)

// referenceWeight is the Gaussian collapse written directly over time.Time
// with a math.Exp for every term — the definition Graph's skipping,
// integer-nanosecond collapse must match bit for bit.
func referenceWeight(obs []WeightedEdge, tq time.Time, sigma time.Duration) float64 {
	if len(obs) == 0 {
		return 0
	}
	s := sigma.Seconds()
	num, den := 0.0, 0.0
	for _, o := range obs {
		dt := tq.Sub(o.Time).Seconds() / s
		l := math.Exp(-0.5 * dt * dt)
		num += l * o.Weight
		den += l
	}
	if den <= 1e-300 {
		sum := 0.0
		for _, o := range obs {
			sum += o.Weight
		}
		return sum / float64(len(obs))
	}
	return num / den
}

var collapseSigmas = []time.Duration{
	time.Nanosecond, time.Millisecond, time.Second, time.Minute,
	time.Hour, 24 * time.Hour, 1000 * time.Hour,
}

// TestCollapseMatchesReferenceBits builds random edges (1–64 observations
// each) at every σ and asks Weight, WeightsBatch and OrderNeighbors at query
// times up to 40σ outside the observations' span — some exactly at the
// underflow horizon of one observation — against referenceWeight, comparing
// the float64 bits.
func TestCollapseMatchesReferenceBits(t *testing.T) {
	const trials = 300
	for _, sigma := range collapseSigmas {
		t.Run(sigma.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(sigma)))
			h := underflowHorizon(sigma)
			fallbacks := 0
			for trial := 0; trial < trials; trial++ {
				g := New(Options{Sigma: sigma})
				span := time.Duration(rng.Int63n(int64(20 * sigma)))
				ref := map[event.DeviceID][]WeightedEdge{}
				cands := []event.DeviceID{"none"} // no edge: weight 0
				for c := 0; c < 1+rng.Intn(4); c++ {
					n := event.DeviceID(fmt.Sprintf("n%d", c))
					cands = append(cands, n)
					for i := 0; i < 1+rng.Intn(64); i++ {
						w := WeightedEdge{Weight: rng.Float64(), Time: t0.Add(time.Duration(rng.Int63n(int64(span) + 1)))}
						g.Merge([]Edge{{From: "q", To: n, Weight: w.Weight}}, w.Time)
						ref[n] = append(ref[n], w)
					}
				}
				var tq time.Time
				switch rng.Intn(4) {
				case 0: // just inside, at, or just past one observation's horizon
					obs := ref[cands[1+rng.Intn(len(cands)-1)]]
					at := obs[rng.Intn(len(obs))].Time
					d := h - 1 + time.Duration(rng.Intn(4))
					if rng.Intn(2) == 0 {
						d = -d
					}
					tq = at.Add(d)
				case 1: // beyond every observation: the plain-average fallback
					tq = t0.Add(-40 * sigma)
				default:
					tq = t0.Add(-40*sigma + time.Duration(rng.Int63n(int64(span+80*sigma))))
				}
				rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

				want := make([]float64, len(cands))
				for i, c := range cands {
					want[i] = referenceWeight(ref[c], tq, sigma)
				}
				batch := g.WeightsBatch("q", cands, tq, nil)
				for i, c := range cands {
					if got := g.Weight(c, "q", tq); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d: Weight(%s) at %v = %v, reference %v", trial, c, tq.Sub(t0), got, want[i])
					}
					if math.Float64bits(batch[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d: WeightsBatch[%s] = %v, reference %v", trial, c, batch[i], want[i])
					}
					if len(ref[c]) > 0 && referenceDen(ref[c], tq, sigma) <= 1e-300 {
						fallbacks++
					}
				}
				order := make([]int, len(cands))
				for i := range order {
					order[i] = i
				}
				sort.SliceStable(order, func(i, j int) bool { return want[order[i]] > want[order[j]] })
				got := g.OrderNeighbors("q", cands, tq)
				for i, p := range order {
					if got[i] != cands[p] {
						t.Fatalf("trial %d: OrderNeighbors = %v, reference order %v", trial, got, order)
					}
				}
			}
			if fallbacks == 0 {
				t.Error("no trial reached the plain-average fallback")
			}
		})
	}
}

// referenceDen is referenceWeight's kernel normalizer.
func referenceDen(obs []WeightedEdge, tq time.Time, sigma time.Duration) float64 {
	den := 0.0
	for _, o := range obs {
		dt := tq.Sub(o.Time).Seconds() / sigma.Seconds()
		den += math.Exp(-0.5 * dt * dt)
	}
	return den
}

// TestUnderflowHorizonIsExact: the first Δ the collapse skips, on either
// side of t_q, has a kernel term of exactly +0, while a Δ a thousandth
// inside the horizon still has a nonzero one; a σ too large for any
// Duration to underflow saturates instead of overflowing.
func TestUnderflowHorizonIsExact(t *testing.T) {
	term := func(d, sigma time.Duration) float64 {
		dt := d.Seconds() / sigma.Seconds()
		return math.Exp(-0.5 * dt * dt)
	}
	for _, sigma := range append(collapseSigmas, math.MaxInt64/39) {
		h := underflowHorizon(sigma)
		if h <= 0 || h == math.MaxInt64 {
			t.Fatalf("σ=%v: horizon %d, want finite and positive", sigma, h)
		}
		for _, d := range []time.Duration{h + 1, -(h + 1)} {
			if l := term(d, sigma); l != 0 || math.Signbit(l) {
				t.Errorf("σ=%v: term at Δ=%d is %v, want +0", sigma, d, l)
			}
		}
		if l := term(h-h/1000, sigma); l == 0 {
			t.Errorf("σ=%v: term at Δ=%d already 0: horizon %d is too far", sigma, h-h/1000, h)
		}
	}
	for _, sigma := range []time.Duration{1 << 62, math.MaxInt64} {
		if h := underflowHorizon(sigma); h != math.MaxInt64 {
			t.Errorf("σ=%v: horizon %d, want saturated at MaxInt64", sigma, h)
		}
	}
	// A saturated horizon skips nothing: a century-old observation still
	// weighs in, bit for bit.
	g := New(Options{Sigma: 1 << 62})
	obs := []WeightedEdge{{Weight: 0.25, Time: t0.AddDate(-100, 0, 0)}, {Weight: 0.75, Time: t0}}
	for _, o := range obs {
		g.Merge([]Edge{{From: "a", To: "b", Weight: o.Weight}}, o.Time)
	}
	tq := t0.AddDate(100, 0, 0)
	if got, want := g.Weight("a", "b", tq), referenceWeight(obs, tq, 1<<62); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("saturated collapse = %v, reference %v", got, want)
	}
}

// TestCollapseMemoMatchesReference drives one graph through the call
// sequences the collapse memo must survive, comparing every answer's bits
// with referenceWeight: WeightsBatch and OrderNeighbors reusing one t_q, a
// Merge between two calls at the same t_q, and three times more distinct
// query times than memo rows. Its 48 devices give enough edges per call that
// two of them share a memo slot, so a slot must also match its edge's key.
func TestCollapseMemoMatchesReference(t *testing.T) {
	const (
		sigma  = time.Hour
		devs   = 48
		steps  = 3000
		maxObs = 6
	)
	rng := rand.New(rand.NewSource(29))
	g := New(Options{Sigma: sigma, MaxObservationsPerEdge: maxObs})
	var ids []event.DeviceID
	for i := 0; i < devs; i++ {
		ids = append(ids, event.DeviceID(fmt.Sprintf("d%d", i)))
	}
	minutes := make([]time.Time, 48)
	for i := range minutes {
		minutes[i] = t0.Add(time.Duration(rng.Intn(3*24*60)) * time.Minute)
	}
	tqs := minutes[:3*memoRows]
	type pair [2]event.DeviceID
	key := func(a, b event.DeviceID) pair {
		a, b = orderPair(a, b)
		return pair{a, b}
	}
	ref := map[pair][]WeightedEdge{}
	merge := func(at time.Time) {
		var es []Edge
		for n := rng.Intn(4); n >= 0; n-- {
			e := Edge{From: ids[rng.Intn(devs)], To: ids[rng.Intn(devs)], Weight: rng.Float64()}
			es = append(es, e)
			if e.From == e.To {
				continue
			}
			k := key(e.From, e.To)
			ref[k] = append(ref[k], WeightedEdge{Weight: e.Weight, Time: at})
			if len(ref[k]) > maxObs {
				ref[k] = ref[k][1:]
			}
		}
		g.Merge(es, at)
	}
	check := func(step int, what string, d event.DeviceID, tq time.Time) {
		cands := append([]event.DeviceID{"none"}, ids...)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		want := make([]float64, len(cands))
		for i, c := range cands {
			want[i] = referenceWeight(ref[key(d, c)], tq, sigma)
		}
		if what == "batch" {
			got := g.WeightsBatch(d, cands, tq, nil)
			for i, c := range cands {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("step %d: WeightsBatch(%s)[%s] at %v = %v, reference %v", step, d, c, tq.Sub(t0), got[i], want[i])
				}
			}
			return
		}
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return want[order[i]] > want[order[j]] })
		got := g.OrderNeighbors(d, cands, tq)
		for i, p := range order {
			if got[i] != cands[p] {
				t.Fatalf("step %d: OrderNeighbors(%s) at %v = %v, reference order %v", step, d, tq.Sub(t0), got, order)
			}
		}
	}
	for step := 0; step < steps; step++ {
		tq := tqs[rng.Intn(len(tqs))]
		d := ids[rng.Intn(devs)]
		check(step, "batch", d, tq)
		check(step, "order", d, tq)
		if rng.Intn(2) == 0 {
			merge(minutes[rng.Intn(len(minutes))])
		}
		check(step, "batch", d, tq)
		check(step, "batch", ids[rng.Intn(devs)], tq)
	}
}

// TestCollapseMemoConcurrent runs readers at one shared t_q (and one
// alternating between it and another) beside a writer merging edges of the
// queried device. Every WeightsBatch must equal, bit for bit, the reference
// after some prefix of the writer's merges between the call's start and end:
// a memoized weight never outlives the Merge that changed its edge. Run it
// with -race -count=10.
func TestCollapseMemoConcurrent(t *testing.T) {
	const (
		sigma  = time.Hour
		merges = 200
		reads  = 300
	)
	rng := rand.New(rand.NewSource(7))
	tq := t0.Add(6 * time.Hour)
	other := t0.Add(90 * time.Minute)
	cands := []event.DeviceID{"a", "b", "c", "none"}
	type step struct {
		to event.DeviceID
		w  float64
		at time.Time
	}
	plan := make([]step, merges)
	for i := range plan {
		plan[i] = step{to: cands[rng.Intn(3)], w: rng.Float64(), at: t0.Add(time.Duration(rng.Intn(12*60)) * time.Minute)}
	}
	// after[k] is the reference answer at each t_q once k merges landed.
	after := map[time.Time][][]float64{}
	for _, at := range []time.Time{tq, other} {
		obs := map[event.DeviceID][]WeightedEdge{}
		for k := 0; k <= merges; k++ {
			if k > 0 {
				s := plan[k-1]
				obs[s.to] = append(obs[s.to], WeightedEdge{Weight: s.w, Time: s.at})
				if len(obs[s.to]) > 64 {
					obs[s.to] = obs[s.to][1:]
				}
			}
			row := make([]float64, len(cands))
			for i, c := range cands {
				row[i] = referenceWeight(obs[c], at, sigma)
			}
			after[at] = append(after[at], row)
		}
	}

	g := New(Options{Sigma: sigma})
	var started, done atomic.Int64
	var wg sync.WaitGroup
	read := func(at time.Time, out []float64) []float64 {
		lo := done.Load()
		out = g.WeightsBatch("q", cands, at, out)
		hi := started.Load()
		for k := lo; k <= hi; k++ {
			if slices.EqualFunc(out, after[at][k], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				return out
			}
		}
		t.Errorf("WeightsBatch at %v = %v matches no reference after %d–%d merges", at.Sub(t0), out, lo, hi)
		return out
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var out []float64
			for i := 0; i < reads || done.Load() < merges; i++ {
				at := tq
				if r == 2 && i%2 == 1 {
					at = other
				}
				out = read(at, out)
				g.OrderNeighbors("q", cands, at)
			}
		}(r)
	}
	for _, s := range plan {
		started.Add(1)
		g.Merge([]Edge{{From: "q", To: s.to, Weight: s.w}}, s.at)
		done.Add(1)
		runtime.Gosched()
	}
	wg.Wait()
	read(tq, nil)
	read(other, nil)
}

// collapseBench is the graph half of steady-read fine locates, shaped after
// a replay of the graph calls of a seed-1 steady-read benchmark's timed
// phase (448k calls, 57,896 locates). Per locate the replay's neighbor sweep
// asks 21.5 candidates, 15.6 of them with an edge of 39 observations
// (median 40); OrderNeighbors orders 20.1 of them; D-FINE's pair sweeps
// WeightsBatch(n_j, n_<j) make 5.7 calls over 26 candidates in all, 86% of
// them with an edge of 37 observations; 56% of the observations lie inside
// the underflow horizon. Here each of 8 query devices has 22 candidates, 16
// with an edge of 40 observations, orders the first 20, and runs 7 pair
// sweeps (28 candidates) over edges of 37 observations that link each pair
// of its edged candidates with probability 0.86. Observations are stamped
// with whole minutes of five 09:00–17:00 days, as a Merge stamps each edge
// with its query's minute; query times are minutes of the same days.
type collapseBench struct {
	g     *Graph
	qs    []event.DeviceID
	cands [][]event.DeviceID
	tqs   []time.Time
}

func newCollapseBench() *collapseBench {
	const (
		devices = 8
		cands   = 22
		edged   = 16
		obsPer  = 40
		pairObs = 37
		linked  = 0.86
		days    = 5
	)
	rng := rand.New(rand.NewSource(1))
	minute := func() time.Time {
		return t0.AddDate(0, 0, rng.Intn(days)).Add(time.Duration(rng.Intn(8*60)) * time.Minute)
	}
	cb := &collapseBench{g: New(Options{})}
	observe := func(a, b event.DeviceID, n int) {
		for i := 0; i < n; i++ {
			cb.g.Merge([]Edge{{From: a, To: b, Weight: rng.Float64()}}, minute())
		}
	}
	for q := 0; q < devices; q++ {
		qd := event.DeviceID(fmt.Sprintf("q%d", q))
		var ns []event.DeviceID
		for c := 0; c < cands; c++ {
			ns = append(ns, event.DeviceID(fmt.Sprintf("q%d-n%d", q, c)))
		}
		for i := 0; i < edged; i++ {
			observe(qd, ns[i], obsPer)
			for j := 0; j < i; j++ {
				if rng.Float64() < linked {
					observe(ns[i], ns[j], pairObs)
				}
			}
		}
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		cb.qs = append(cb.qs, qd)
		cb.cands = append(cb.cands, ns)
	}
	for i := 0; i < 1024; i++ {
		cb.tqs = append(cb.tqs, minute())
	}
	return cb
}

// locate makes one locate's graph calls for query device q at tq: the
// neighbor sweep, the ordering, then the pair sweeps over the first eight
// ordered neighbors.
func (cb *collapseBench) locate(q int, tq time.Time, out []float64) []float64 {
	const (
		ordered = 20
		pairs   = 7
	)
	cands := cb.cands[q]
	out = cb.g.WeightsBatch(cb.qs[q], cands, tq, out)
	order := cb.g.OrderNeighbors(cb.qs[q], cands[:ordered], tq)
	for j := 1; j <= pairs; j++ {
		out = cb.g.WeightsBatch(order[j], order[:j], tq, out)
	}
	return out
}

// BenchmarkGraphCollapse times one locate's graph calls (collapseBench),
// each at its own query device and minute.
func BenchmarkGraphCollapse(b *testing.B) {
	cb := newCollapseBench()
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = cb.locate(i%len(cb.qs), cb.tqs[i%len(cb.tqs)], out)
	}
}

// BenchmarkGraphCollapseParallel runs the same locates from GOMAXPROCS
// goroutines that all ask about one query time, as a batch request for
// every device at one instant does: every call hashes to the same memo row.
// Compare ns/op across -cpu 1,2,8 to see whether readers wait for each
// other.
func BenchmarkGraphCollapseParallel(b *testing.B) {
	cb := newCollapseBench()
	tq := cb.tqs[0]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var out []float64
		for i := 0; pb.Next(); i++ {
			out = cb.locate(i%len(cb.qs), tq, out)
		}
	})
}
