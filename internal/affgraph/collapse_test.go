package affgraph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// BenchmarkGraphCollapse times the graph half of one steady-read locate:
// WeightsBatch over 20 candidates, then OrderNeighbors over the same 20, on
// edges that each hold 64 observations spread over five 09:00–17:00 days,
// queried at daytime instants inside those days.
func BenchmarkGraphCollapse(b *testing.B) {
	const (
		devices = 8
		cands   = 20
		days    = 5
		obsPer  = 64
	)
	rng := rand.New(rand.NewSource(1))
	daytime := func() time.Time {
		return t0.AddDate(0, 0, rng.Intn(days)).Add(time.Duration(rng.Int63n(int64(8 * time.Hour))))
	}
	g := New(Options{})
	var qs []event.DeviceID
	var cs [][]event.DeviceID
	for q := 0; q < devices; q++ {
		qd := event.DeviceID(fmt.Sprintf("q%d", q))
		qs = append(qs, qd)
		var ns []event.DeviceID
		for c := 0; c < cands; c++ {
			n := event.DeviceID(fmt.Sprintf("q%d-n%d", q, c))
			ns = append(ns, n)
			for i := 0; i < obsPer; i++ {
				g.Merge([]Edge{{From: qd, To: n, Weight: rng.Float64()}}, daytime())
			}
		}
		cs = append(cs, ns)
	}
	tqs := make([]time.Time, 1024)
	for i := range tqs {
		tqs[i] = daytime()
	}
	var out []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % devices
		out = g.WeightsBatch(qs[q], cs[q], tqs[i%len(tqs)], out)
		benchOrder = g.OrderNeighbors(qs[q], cs[q], tqs[i%len(tqs)])
	}
}

var benchOrder []event.DeviceID
