package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"locater"
	"locater/internal/sim"
)

// digests returns the op-list digest of every workload for a seed at the
// smoke scale, in workloadNames order.
func digests(t *testing.T, seed int64) []string {
	t.Helper()
	ds, err := generate(shortScale)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(workloadNames))
	for i, w := range workloadNames {
		pl, err := newPlan(shortScale, ds, w, seed, 2)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		out[i] = w + " " + pl.digest()
	}
	return out
}

// The schedule is a pure function of the seed: the same seed gives the same
// op lists (and the ones recorded for seed 1), another seed gives others.
func TestOpListsAreDeterministic(t *testing.T) {
	first, again, other := digests(t, 1), digests(t, 1), digests(t, 2)
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("seed 1 gave two op lists:\n%v\n%v", first, again)
	}
	for i := range first {
		if first[i] == other[i] {
			t.Errorf("seeds 1 and 2 share an op list: %s", first[i])
		}
	}
	golden := filepath.Join("testdata", "oplists-seed1.golden")
	got := strings.Join(first, "\n") + "\n"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("op lists of seed 1 changed (UPDATE_GOLDEN=1 re-records them):\ngot\n%swant\n%s", got, want)
	}
}

// The rig must answer exactly as locater.System does: same events, same
// queries, same results, for both variants, across a crash re-open.
func TestRigMatchesSystem(t *testing.T) {
	sc, err := sim.Office(1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sim.Generate(sc.Config(simStart, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	split := len(ds.Events) * 9 / 10
	var queries []locater.Query
	for i, person := range ds.People {
		for h := 0; h < 6; h++ {
			queries = append(queries, locater.Query{
				Device: person.Device,
				Time:   simStart.AddDate(0, 0, 2).Add(time.Duration(9+h)*time.Hour + time.Duration(7*i)*time.Minute),
			})
		}
	}
	for _, variant := range []locater.Variant{locater.IndependentVariant, locater.DependentVariant} {
		for _, cleansing := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/cleansing=%t", variant, cleansing), func(t *testing.T) {
				cfg := engineConfig(ds.Building, cleansing)
				cfg.Variant = variant
				openers := []opener{systemOpener(cfg), rigOpener(cfg, newRecorder(), &rigCounts{})}
				var answers [2][]locater.Result
				for i, open := range openers {
					dir := t.TempDir()
					eng, err := open(dir)
					if err != nil {
						t.Fatal(err)
					}
					must := func(err error) {
						t.Helper()
						if err != nil {
							t.Fatal(err)
						}
					}
					must(eng.Ingest(ds.Events[:split]))
					must(eng.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute))
					must(eng.Checkpoint())
					ask := func() {
						for _, br := range eng.LocateBatch(queries, 1) {
							must(br.Err)
							answers[i] = append(answers[i], br.Result)
						}
					}
					ask()
					must(eng.Ingest(ds.Events[split:]))
					ask()
					// Crash: abandon the engine, recover the directory.
					if eng, err = open(dir); err != nil {
						t.Fatal(err)
					}
					if eng.NumEvents() == 0 {
						t.Fatal("recovered no events")
					}
					ask()
					must(eng.Close())
				}
				if !reflect.DeepEqual(answers[0], answers[1]) {
					for k := range answers[0] {
						if answers[0][k] != answers[1][k] {
							t.Fatalf("answer %d differs:\nsystem %+v\nrig    %+v", k, answers[0][k], answers[1][k])
						}
					}
					t.Fatalf("answer counts differ: %d vs %d", len(answers[0]), len(answers[1]))
				}
			})
		}
	}
}

// Self time is a span's duration minus what its children cover; over a tree
// the self times sum to the root's duration.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{name: spRequest, start: 0, end: 100, parent: -1},      // 0: root
		{name: spLocate, start: 10, end: 90, parent: 0},        // 1
		{name: spCoarseLocate, start: 12, end: 30, parent: 1},  // 2
		{name: spFineLocate, start: 30, end: 80, parent: 1},    // 3
		{name: spNeighbors, start: 35, end: 45, parent: 3},     // 4
		{name: spBatchAffinity, start: 45, end: 70, parent: 3}, // 5
		{name: spStoreAffinity, start: 50, end: 65, parent: 5}, // 6
		{name: spSegView, start: 52, end: 55, parent: 6},       // 7
		{name: spSegView, start: 54, end: 60, parent: 6},       // 8: overlaps 7 by one
	}
	want := []int64{20, 12, 18, 15, 10, 10, 7, 3, 6}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	rec := &recorder{spans: spans}
	sum := rec.summarize(0, len(spans))
	// The overlapping pair is counted once in the parent, so the tree's self
	// times exceed the root by exactly the overlap; a serial trace has none.
	if sum.selfNs != sum.rootNs+1 {
		t.Errorf("self total %d, root total %d", sum.selfNs, sum.rootNs)
	}
	serial := spans[:7]
	sum = (&recorder{spans: serial}).summarize(0, len(serial))
	if sum.selfNs != sum.rootNs || sum.rootNs != 100 {
		t.Errorf("serial tree: self total %d, root total %d, want both 100", sum.selfNs, sum.rootNs)
	}
	if got := sum.byName[spFineLocate]; got.count != 1 || got.durNs != 50 || got.self != 15 {
		t.Errorf("fine.locate totals %+v", got)
	}
}

// The recorder gives every span the innermost open span as its parent and
// numbers requests by their root spans.
func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	a := rec.begin(spRequest)
	b := rec.begin(spLocate)
	rec.end(b)
	rec.end(a)
	c := rec.begin(spIngest)
	rec.end(c)
	want := []struct{ parent, req int32 }{{-1, 0}, {0, 0}, {-1, 1}}
	for i, w := range want {
		if s := rec.spans[i]; s.parent != w.parent || s.req != w.req || s.end < s.start {
			t.Errorf("span %d = %+v, want parent %d request %d", i, s, w.parent, w.req)
		}
	}
	var none *recorder
	none.end(none.begin(spLocate)) // a nil recorder records nothing
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), which
// the driver uses for its spread.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of {1,2,3} = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// BENCHMARK.json at the root of the repository must name exactly what the
// program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command = %v", file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].exact = false
		}
		return out
	}
	if !reflect.DeepEqual(file.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs from the program's table:\nfile %+v\nprog %+v", file.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(file.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs from the program's table")
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower better")
	}
}

// A smoke run of all four workloads at the small scale, untraced and traced:
// every check passes and every metric of the contract is printed, the
// end-to-end ones non-zero.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			rc := runConfig{p: shortScale, workload: w, seed: 3, seconds: 1, out: t.TempDir()}
			res, err := run(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("untraced run incorrect: %v", res.reasons)
			}
			res.metrics.fill(endToEnd)
			for _, d := range endToEnd {
				if v := res.metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v)
				}
			}
			traced, err := runTraced(rc)
			if err != nil {
				t.Fatal(err)
			}
			// The timing gates (rig within 10% of System) are sized for the
			// full dataset; on a 2-second smoke list only the exact gates
			// must hold.
			for _, r := range traced.reasons {
				if !strings.Contains(r, "within 10%") && !strings.Contains(r, "overhead ratio") {
					t.Errorf("traced run: %s", r)
				}
			}
			if traced.oplist != res.oplist {
				t.Errorf("traced and untraced runs disagree on the op list: %s vs %s", traced.oplist, res.oplist)
			}
			// The workloads separate the layers as designed.
			hits := traced.metrics["locater.result_cache_hit_share"].Value
			switch w {
			case wlHotDashboard:
				if hits < 0.95 {
					t.Errorf("hot-dashboard result-cache hit share %.3f, want at least 0.95", hits)
				}
			case wlSteadyRead:
				if hits > 0.05 {
					t.Errorf("steady-read result-cache hit share %.3f, want under 0.05", hits)
				}
			}
			if w == wlLiveMixed {
				// The feed ran beside the reader: every chunk was acknowledged
				// and the reader answered while it was being fed.
				if acks := res.aux["ingest_ack_p50_us"].Samples; acks != int(time.Duration(rc.seconds)*time.Second/shortScale.feedPeriod) {
					t.Errorf("live-mixed acknowledged %d feed chunks", acks)
				}
				if _, ok := res.aux["loadgen.feed_lateness_p95_us"]; !ok {
					t.Error("live-mixed did not report the feed's lateness")
				}
			}
			if clean := traced.metrics["cleanse.clean_us_per_batch"].Value; (clean > 0) != (w == wlLiveMixed) {
				t.Errorf("cleanse.clean_us_per_batch = %v on %s: only live-mixed cleanses", clean, w)
			}
			if _, err := os.Stat(filepath.Join(rc.out, "trace-"+w+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}
