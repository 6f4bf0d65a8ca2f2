// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6). Each driver generates (or reuses) a
// simulated workload, assembles the systems under test — Baseline1,
// Baseline2, I-LOCATER, D-LOCATER, with or without the caching engine — and
// reports the same rows/series the paper reports, as printable tables.
//
// The absolute numbers differ from the paper (the substrate is a simulator,
// not the DBH testbed); the experiments reproduce the paper's shape: system
// orderings, saturation curves, and efficiency trends. EXPERIMENTS.md
// records paper-vs-measured values for every driver.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"locater"
	"locater/internal/baseline"
	"locater/internal/coarse"
	"locater/internal/eval"
	"locater/internal/sim"
	"locater/internal/space"
	"locater/internal/store"
)

// Params scales the experiment workloads. The zero value selects defaults
// sized for a laptop-scale run (~tens of seconds per experiment).
type Params struct {
	// PerClass is the number of simulated people per predictability class
	// in the DBH-like dataset. Default 6 (24 people).
	PerClass int
	// Days is the length of the simulated trace. Default 70 (10 weeks:
	// up to 9 weeks of history plus a query week, as in Fig. 8).
	Days int
	// Queries is the per-experiment query count. Default 400.
	Queries int
	// Seed drives dataset generation and query sampling.
	Seed int64
	// HistoryDays is the history window N for LOCATER variants. Default
	// coarse.DefaultHistoryDays (8 weeks, the paper's choice for the
	// comparison experiments).
	HistoryDays int
	// Fast trades fidelity for speed in self-training (batch promotions,
	// capped training gaps). Enabled by default.
	Fast bool
}

// WithDefaults fills unset fields.
func (p Params) WithDefaults() Params {
	if p.PerClass <= 0 {
		p.PerClass = 6
	}
	if p.Days <= 0 {
		p.Days = 70
	}
	if p.Queries <= 0 {
		p.Queries = 400
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.HistoryDays <= 0 {
		p.HistoryDays = coarse.DefaultHistoryDays
	}
	return p
}

// simStart is the fixed simulation start (a Monday) for all experiments.
var simStart = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// dbhCache memoizes generated DBH datasets per parameter set: dataset
// generation is deterministic, and several experiments share the workload.
var (
	dbhMu    sync.Mutex
	dbhCache = map[string]*sim.Dataset{}
)

// BuildDBH generates (or returns the cached) DBH-like dataset.
func BuildDBH(p Params) (*sim.Dataset, error) {
	p = p.WithDefaults()
	key := fmt.Sprintf("dbh/%d/%d/%d", p.PerClass, p.Days, p.Seed)
	dbhMu.Lock()
	defer dbhMu.Unlock()
	if ds, ok := dbhCache[key]; ok {
		return ds, nil
	}
	sc, err := sim.DBH(p.PerClass)
	if err != nil {
		return nil, err
	}
	ds, err := sim.Generate(sc.Config(simStart, p.Days, p.Seed))
	if err != nil {
		return nil, err
	}
	dbhCache[key] = ds
	return ds, nil
}

// SystemSpec names a system under test.
type SystemSpec struct {
	Name string
	// Variant applies to LOCATER systems.
	Variant locater.Variant
	// Cache enables the caching engine.
	Cache bool
	// Baseline selects Baseline1 (1) or Baseline2 (2); 0 means LOCATER.
	Baseline int
	// Weights overrides the room-affinity weights (LOCATER only).
	Weights locater.Weights
	// HistoryDays overrides Params.HistoryDays (LOCATER only).
	HistoryDays int
	// DisableStop disables Algorithm 2's stop conditions (Fig. 11).
	DisableStop bool
	// TauLow/TauHigh override coarse thresholds when positive (Fig. 7).
	TauLow, TauHigh time.Duration
}

// BuildSystem assembles the named system over the dataset and wraps it as an
// eval.System.
func BuildSystem(ds *sim.Dataset, p Params, spec SystemSpec) (eval.System, error) {
	p = p.WithDefaults()
	if spec.Baseline != 0 {
		st, err := ingestedStore(ds, p)
		if err != nil {
			return nil, err
		}
		var bs *baseline.System
		if spec.Baseline == 1 {
			bs = baseline.NewBaseline1(ds.Building, st, p.Seed)
		} else {
			bs = baseline.NewBaseline2(ds.Building, st, p.Seed)
		}
		return eval.SystemFunc(func(q eval.Query) (eval.Answer, error) {
			r, err := bs.Locate(q.Device, q.Time)
			if err != nil {
				return eval.Answer{}, err
			}
			return eval.Answer{Outside: r.Outside, Region: r.Region, Room: r.Room}, nil
		}), nil
	}

	historyDays := p.HistoryDays
	if spec.HistoryDays > 0 {
		historyDays = spec.HistoryDays
	}
	cfg := locater.Config{
		Building:              ds.Building,
		Variant:               spec.Variant,
		Weights:               spec.Weights,
		EnableCache:           spec.Cache,
		HistoryDays:           historyDays,
		DisableStopConditions: spec.DisableStop,
		TauLow:                spec.TauLow,
		TauHigh:               spec.TauHigh,
	}
	if p.Fast {
		cfg.PromotionsPerRound = 8
		cfg.MaxTrainingGaps = 150
	}
	sys, err := locater.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Ingest(ds.Events); err != nil {
		return nil, err
	}
	sys.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	return eval.SystemFunc(func(q eval.Query) (eval.Answer, error) {
		r, err := sys.Locate(q.Device, q.Time)
		if err != nil {
			return eval.Answer{}, err
		}
		return eval.Answer{Outside: r.Outside, Region: r.Region, Room: r.Room}, nil
	}), nil
}

// ingestedStore builds a plain store with the dataset's events, for the
// baseline systems.
func ingestedStore(ds *sim.Dataset, p Params) (*store.Store, error) {
	st := store.New(0)
	if _, err := st.Ingest(ds.Events); err != nil {
		return nil, err
	}
	st.EstimateDeltas(0.9, 2*time.Minute, 15*time.Minute)
	return st, nil
}

// QueryWindow returns the default query sampling window: the last week of
// the dataset, so LOCATER has history behind every query.
func QueryWindow(ds *sim.Dataset) (time.Time, time.Time) {
	end := ds.Config.Start.AddDate(0, 0, ds.Config.Days)
	start := end.AddDate(0, 0, -7)
	if start.Before(ds.Config.Start) {
		start = ds.Config.Start
	}
	return start, end
}

// SampleDefaultQueries draws the standard workload: daytime-biased queries
// over the last week, 60% at truly-inside times (mirroring the paper's
// diary/camera ground truth skew).
func SampleDefaultQueries(ds *sim.Dataset, p Params, devices []locater.DeviceID) ([]eval.Query, error) {
	p = p.WithDefaults()
	from, to := QueryWindow(ds)
	return eval.SampleQueries(ds, eval.WorkloadOptions{
		NumQueries:  p.Queries,
		Seed:        p.Seed + 17,
		Devices:     devices,
		From:        from,
		To:          to,
		DaytimeOnly: true,
		InsideBias:  0.6,
	})
}

// Table is a printable experiment result in the paper's row/column shape.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// pct formats a fraction as a rounded percentage.
func pct(f float64) string { return fmt.Sprintf("%.0f", f*100) }

// pct1 formats a fraction as a percentage with one decimal.
func pct1(f float64) string { return fmt.Sprintf("%.1f", f*100) }

// triple formats Pc|Pf|Po like the paper's Table 3 cells.
func triple(p eval.Precision) string {
	return fmt.Sprintf("%s|%s|%s", pct(p.Pc()), pct(p.Pf()), pct(p.Po()))
}

// bandsOf groups the dataset's devices by predictability band, keeping only
// the paper's four bands.
func bandsOf(ds *sim.Dataset) map[string][]locater.DeviceID {
	out := make(map[string][]locater.DeviceID)
	for _, band := range eval.Bands() {
		devs := eval.DevicesInBand(ds, band)
		if len(devs) > 0 {
			out[band] = devs
		}
	}
	return out
}

// sortedKeys returns map keys sorted.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Registry lists all experiment drivers by their paper artifact name.
type Driver struct {
	Name string
	// Run executes the experiment and returns its table(s).
	Run func(p Params) ([]*Table, error)
	// Description summarizes the paper result being reproduced.
	Description string
}

// All returns the drivers in paper order.
func All() []Driver {
	return []Driver{
		{Name: "fig7", Run: Fig7Thresholds, Description: "coarse precision vs thresholds τl, τh"},
		{Name: "table2", Run: Table2Weights, Description: "fine precision vs room-affinity weight combinations"},
		{Name: "fig8", Run: Fig8History, Description: "precision vs weeks of historical data"},
		{Name: "fig9", Run: Fig9CachingPrecision, Description: "precision impact of the caching engine"},
		{Name: "table3", Run: Table3Groups, Description: "precision per predictability group vs baselines"},
		{Name: "table4", Run: Table4Scenarios, Description: "precision per profile on simulated scenarios"},
		{Name: "fig10", Run: Fig10Efficiency, Description: "per-query latency vs number of processed queries"},
		{Name: "fig11", Run: Fig11StopConditions, Description: "latency with vs without stop conditions"},
		{Name: "fig12", Run: Fig12Caching, Description: "latency with vs without caching"},
	}
}

// Find returns the driver with the given name.
func Find(name string) (Driver, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Driver{}, false
}

// ensure space import is used (building accessors appear in drivers).
var _ = space.Public
