package coarse

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"locater/internal/event"
	"locater/internal/ml"
	"locater/internal/sim"
	"locater/internal/space"
	"locater/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/models.golden")

// modelsGolden pins every trained model and every answer of the coarse stage
// bit for bit. It was recorded at 22df147, before training and the query
// path were restructured for speed; those changes must not move one bit.
// The recording ran this file in a copy of 22df147 with its two model calls
// in that tree's shapes: predictInside(f) and predictRegion(f, goldenFallback)
// took the GapFeatures and an eager fallback region. Re-run there, the
// recorder reproduces the file byte for byte.
const modelsGolden = "testdata/models.golden"

// goldenFallback marks a predictRegion answer that came from the fallback.
const goldenFallback space.RegionID = "FALLBACK"

var goldenStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) // Monday

// Two crafted devices reach the arms the simulated population does not: the
// newcomer has one event and no gaps, so it is served by the population
// model; the drifter's only gaps are hourly ones between τ_l and τ_h, so
// nothing is bootstrap-labeled and the region answer is the fallback.
const (
	goldenNewcomer event.DeviceID = "zz:newcomer"
	goldenDrifter  event.DeviceID = "zz:drifter"
)

// goldenStore is sim.DBH(3) over 14 days (seed 1) plus the two crafted
// devices, with estimated deltas. It also returns the simulated devices.
func goldenStore(t testing.TB) (*space.Building, *store.Store, []event.DeviceID) {
	t.Helper()
	sc, err := sim.DBH(3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(goldenStart, 14, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0)
	if _, err := st.Ingest(ds.Events); err != nil {
		t.Fatal(err)
	}
	day := goldenStart.AddDate(0, 0, 12)
	aps := ds.Building.AccessPoints()
	crafted := []event.Event{{Device: goldenNewcomer, Time: day.Add(12*time.Hour + 30*time.Minute), AP: aps[5]}}
	for h := 9; h <= 13; h++ {
		crafted = append(crafted, event.Event{Device: goldenDrifter, Time: day.Add(time.Duration(h) * time.Hour), AP: aps[h%2]})
	}
	if _, err := st.Ingest(crafted); err != nil {
		t.Fatal(err)
	}
	if err := st.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	people := make([]event.DeviceID, len(ds.People))
	for i, p := range ds.People {
		people[i] = p.Device
	}
	return ds.Building, st, people
}

// goldenFeatures are 20 fixed feature vectors, a few with unknown regions.
func goldenFeatures() []GapFeatures {
	rng := rand.New(rand.NewSource(20))
	out := make([]GapFeatures, 20)
	for i := range out {
		start := float64(6*3600 + rng.Intn(14*3600))
		dur := float64(60 + rng.Intn(4*3600))
		out[i] = GapFeatures{
			StartTime:   start,
			EndTime:     start + dur,
			Duration:    dur,
			StartDay:    float64(rng.Intn(7)),
			EndDay:      float64(rng.Intn(7)),
			StartRegion: float64(rng.Intn(65) - 1),
			EndRegion:   float64(rng.Intn(65) - 1),
			Density:     rng.Float64() * 3,
		}
	}
	return out
}

// goldenTimes are 48 daytime query times over days 7–12.
func goldenTimes() []time.Time {
	out := make([]time.Time, 48)
	for i := range out {
		out[i] = goldenStart.AddDate(0, 0, 7+i/8).Add(8*time.Hour + 10*time.Minute + time.Duration(i%8)*75*time.Minute)
	}
	return out
}

func describeClassifier(clf *ml.Classifier, maj *ml.MajorityClassifier) string {
	if clf == nil {
		return fmt.Sprintf("majority class=%d total=%d", maj.Class, maj.Total)
	}
	loss := clf.TrainLoss()
	return fmt.Sprintf("lr epochs=%d loss=%016x", len(loss), math.Float64bits(loss[len(loss)-1]))
}

// goldenArm names the classifyGap arm that answers (d, tq).
func goldenArm(t testing.TB, l *Localizer, d event.DeviceID, tq time.Time) string {
	_, g, w, err := l.store.At(d, tq)
	if err != nil {
		t.Fatal(err)
	}
	switch w {
	case event.InValidity:
		return "validity"
	case event.Unknown:
		og, ok := l.openGap(d, tq)
		if !ok {
			return "offline"
		}
		g = og
	}
	th := l.opts.Thresholds
	switch {
	case g.Duration() <= th.TauLow:
		return "tau_low"
	case g.Duration() >= th.TauHigh:
		return "tau_high"
	}
	m, err := l.model(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.regionModel == nil && (m.regionMajority == nil || m.regionMajority.Total == 0) {
		return "model_fallback"
	}
	return "model"
}

func goldenPredictRegion(l *Localizer, m *deviceModel, f GapFeatures) (space.RegionID, float64) {
	return m.predictRegion(f.Vector(), l.regions, func() space.RegionID { return goldenFallback })
}

// goldenConfigs are the recorded localizer configurations: Algorithm 1
// verbatim and the benchmark's 8 promotions per round at the paper's
// thresholds, then tighter thresholds under which most devices self-train
// both models (at the paper's, DBH's inside model is mostly a majority vote
// and every region-labeled gap is bootstrap-labeled).
var goldenConfigs = []struct {
	name string
	opts Options
}{
	{"k=1", Options{MaxPromotionsPerRound: 1}},
	{"k=8", Options{MaxPromotionsPerRound: 8}},
	{"k=1,tau=20m/90m/10m/40m", Options{MaxPromotionsPerRound: 1, Thresholds: Thresholds{
		TauLow: 20 * time.Minute, TauHigh: 90 * time.Minute, RegionTauLow: 10 * time.Minute, RegionTauHigh: 40 * time.Minute,
	}}},
}

func recordModels(t testing.TB) ([]byte, map[string]int) {
	b, st, _ := goldenStore(t)
	feats := goldenFeatures()
	times := goldenTimes()
	arms := make(map[string]int)
	var buf bytes.Buffer
	for _, cfg := range goldenConfigs {
		l := New(b, st, cfg.opts)
		for _, d := range st.Devices() {
			m, err := l.model(d)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s dev=%s gaps=%d inside=[%s] region=[%s]\n", cfg.name, d, m.numGaps,
				describeClassifier(m.insideModel, m.insideMajority), describeClassifier(m.regionModel, m.regionMajority))
			for i, f := range feats {
				inside, conf := m.predictInside(f.Vector())
				region, rconf := goldenPredictRegion(l, m, f)
				fmt.Fprintf(&buf, "  f%02d inside=%t %016x region=%s %016x\n", i, inside, math.Float64bits(conf), region, math.Float64bits(rconf))
			}
			for i, tq := range times {
				arm := goldenArm(t, l, d, tq)
				arms[arm]++
				res, err := l.Locate(d, tq)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "  q%02d %s outside=%t region=%s validity=%t conf=%016x\n", i, arm, res.Outside, res.Region, res.FromValidity, math.Float64bits(res.Confidence))
			}
		}
	}
	return buf.Bytes(), arms
}

// TestModelsGolden requires every model (loss bits, predictions on fixed
// vectors) and every Locate answer to match the recording byte for byte.
// Regenerate with -update only after an intentional change to the models.
func TestModelsGolden(t *testing.T) {
	got, arms := recordModels(t)
	for _, arm := range []string{"validity", "tau_low", "tau_high", "model", "model_fallback"} {
		if arms[arm] == 0 {
			t.Errorf("no golden query reaches the %s arm (arms: %v)", arm, arms)
		}
	}
	if !bytes.Contains(got, []byte("dev="+string(goldenNewcomer)+" gaps=")) {
		t.Errorf("golden lacks the gapless newcomer")
	}
	if *update {
		if err := os.WriteFile(modelsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("models diverge from %s at line %d:\ngot:  %s\nwant: %s", modelsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, %s has %d", len(gl), modelsGolden, len(wl))
	}
}
