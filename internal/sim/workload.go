package sim

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"locater/internal/event"
)

// Workload generation: turns a simulated Dataset into a deterministic,
// rate-independent request schedule for a load generator (go run ./benchmark).
//
// The schedule is generated at UNIT RATE — arrival offsets assume a mean of
// one operation per second — and the dispatcher rescales offsets by the
// target rate at send time. One schedule therefore serves every calibrated
// rate, which keeps golden-file determinism (same seed + spec → byte-identical
// schedule) compatible with runtime rate calibration.
//
// The dataset is split at SimStart into history (pre-ingested before the run,
// so reads have substance) and a replay window (events arriving live as
// ingest operations, optionally dirtied with the oscillation and out-of-order
// patterns the cleaning literature calls out).

// OpKind labels one scheduled operation.
type OpKind uint8

const (
	OpLocate OpKind = iota
	OpBatch
	OpIngest
)

func (k OpKind) String() string {
	switch k {
	case OpLocate:
		return "locate"
	case OpBatch:
		return "batch"
	case OpIngest:
		return "ingest"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Arrival process names for WorkloadSpec.Arrival.
const (
	ArrivalPoisson = "poisson"
	ArrivalUniform = "uniform"
	ArrivalBursty  = "bursty"
)

// LocateQuery is one read target (a device at a time inside the history
// span, so the engine has data to answer with).
type LocateQuery struct {
	Device event.DeviceID
	Time   time.Time
}

// Op is one scheduled operation.
type Op struct {
	// At is the unit-rate arrival offset from schedule start; the
	// dispatcher divides it by the target rate.
	At   time.Duration
	Kind OpKind
	// Query is set for OpLocate; Batch for OpBatch; Events for OpIngest.
	Query LocateQuery
	Batch []LocateQuery
	// Events is the ingest chunk, IDs zeroed (the store assigns them).
	Events []event.Event
	// Dirty marks an ingest chunk that carries injected dirt: an
	// oscillating AP re-association burst or an out-of-order chunk.
	Dirty bool
}

// WorkloadSpec parameterizes schedule generation over a Dataset.
type WorkloadSpec struct {
	// Ops is the number of scheduled operations. Seed drives every random
	// choice; the same (dataset, spec) pair regenerates byte-identically.
	Ops  int
	Seed int64

	// ReadFraction is the fraction of operations that are reads (the rest
	// ingest replay-window events). BatchFraction is the fraction of reads
	// issued as LocateBatch calls of BatchSize queries.
	ReadFraction  float64
	BatchFraction float64
	BatchSize     int

	// IngestChunk caps events per ingest operation (default 64).
	IngestChunk int

	// Arrival selects the arrival process: ArrivalPoisson (default),
	// ArrivalUniform, or ArrivalBursty. Bursty is Markov-modulated
	// Poisson: a fraction BurstFraction of arrivals come from a state
	// running BurstFactor× faster than the mean, the rest from a
	// compensating slow state, preserving unit mean rate overall.
	Arrival       string
	BurstFactor   float64
	BurstFraction float64

	// Diurnal modulates the arrival rate with the dataset's own hourly
	// event histogram (normalized to mean 1, clamped to [0.2, 3]), sweeping
	// one full day across the schedule — quiet nights, busy middays.
	Diurnal bool

	// DirtyFraction is the probability an ingest chunk carries injected
	// dirt (oscillation burst or reversed order).
	DirtyFraction float64

	// SimStart splits the dataset: events before it are History (bulk
	// pre-ingest), events at/after it replay live. Zero means the start of
	// the dataset's last simulated day.
	SimStart time.Time
}

func (spec WorkloadSpec) withDefaults() WorkloadSpec {
	if spec.Ops <= 0 {
		spec.Ops = 1000
	}
	if spec.ReadFraction <= 0 {
		spec.ReadFraction = 0.9
	}
	if spec.ReadFraction > 1 {
		spec.ReadFraction = 1
	}
	if spec.BatchFraction < 0 {
		spec.BatchFraction = 0
	}
	if spec.BatchSize <= 0 {
		spec.BatchSize = 16
	}
	if spec.IngestChunk <= 0 || spec.IngestChunk > 64 {
		spec.IngestChunk = 64
	}
	if spec.Arrival == "" {
		spec.Arrival = ArrivalPoisson
	}
	if spec.BurstFactor <= 1 {
		spec.BurstFactor = 4
	}
	if spec.BurstFraction <= 0 || spec.BurstFraction >= 1 {
		spec.BurstFraction = 0.2
	}
	return spec
}

// Workload is a generated schedule plus the pre-ingest history split.
type Workload struct {
	Spec WorkloadSpec
	// History holds the dataset events before SimStart, to be bulk-ingested
	// before the run starts.
	History []event.Event
	// Ops is the schedule, sorted by At.
	Ops []Op
	// SimStart is the resolved history/replay split point; Window is the
	// replay span's length.
	SimStart time.Time
	Window   time.Duration
}

// BuildWorkload generates a deterministic schedule from a dataset.
func BuildWorkload(ds *Dataset, spec WorkloadSpec) (*Workload, error) {
	spec = spec.withDefaults()
	if ds == nil || len(ds.People) == 0 {
		return nil, fmt.Errorf("sim: workload needs a populated dataset")
	}
	if len(ds.Events) == 0 {
		return nil, fmt.Errorf("sim: workload needs a dataset with events")
	}
	switch spec.Arrival {
	case ArrivalPoisson, ArrivalUniform, ArrivalBursty:
	default:
		return nil, fmt.Errorf("sim: unknown arrival process %q", spec.Arrival)
	}

	start := ds.Config.Start
	end := start.AddDate(0, 0, ds.Config.Days)
	simStart := spec.SimStart
	if simStart.IsZero() {
		simStart = start.AddDate(0, 0, ds.Config.Days-1)
	}
	if !simStart.After(start) || !simStart.Before(end) {
		return nil, fmt.Errorf("sim: SimStart %v outside dataset span [%v, %v)", simStart, start, end)
	}

	w := &Workload{Spec: spec, SimStart: simStart, Window: end.Sub(simStart)}

	// History/replay split. Events are already time-sorted by Generate.
	split := sort.Search(len(ds.Events), func(i int) bool {
		return !ds.Events[i].Time.Before(simStart)
	})
	w.History = ds.Events[:split]
	window := ds.Events[split:]
	if len(w.History) == 0 {
		return nil, fmt.Errorf("sim: no history events before %v", simStart)
	}

	// Diurnal weights from the dataset's own hourly rhythm.
	var diurnal [24]float64
	if spec.Diurnal {
		diurnal = hourlyWeights(ds.Events)
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	arrive := newArrivals(spec, rng)

	// Query times target the settled history span (skip the cold first
	// day, when devices have no past to clean against).
	qlo := start.Add(24 * time.Hour)
	if !qlo.Before(simStart) {
		qlo = start
	}
	qspan := simStart.Sub(qlo)

	randomQuery := func() LocateQuery {
		p := ds.People[rng.Intn(len(ds.People))]
		return LocateQuery{
			Device: p.Device,
			Time:   qlo.Add(time.Duration(rng.Int63n(int64(qspan)))),
		}
	}

	var at time.Duration
	ingestCursor := 0
	ingestLap := 0
	for i := 0; i < spec.Ops; i++ {
		step := arrive()
		if spec.Diurnal {
			// Sweep one simulated day across the schedule: op i lands at
			// hour 24·i/Ops. Faster hours compress inter-arrivals.
			h := (24 * i / spec.Ops) % 24
			step = time.Duration(float64(step) / diurnal[h])
		}
		at += step

		op := Op{At: at}
		switch {
		case rng.Float64() < spec.ReadFraction:
			if rng.Float64() < spec.BatchFraction {
				op.Kind = OpBatch
				op.Batch = make([]LocateQuery, spec.BatchSize)
				for j := range op.Batch {
					op.Batch[j] = randomQuery()
				}
			} else {
				op.Kind = OpLocate
				op.Query = randomQuery()
			}
		default:
			op.Kind = OpIngest
			var chunk []event.Event
			chunk, ingestCursor, ingestLap = nextChunk(window, spec.IngestChunk, ingestCursor, ingestLap, w.Window)
			if len(chunk) == 0 {
				// No replay window (SimStart at the very end): fall back
				// to a read so the schedule keeps its length.
				op.Kind = OpLocate
				op.Query = randomQuery()
				break
			}
			op.Events = chunk
			if spec.DirtyFraction > 0 && rng.Float64() < spec.DirtyFraction {
				op.Dirty = true
				dirtyChunk(ds, rng, op.Events)
			}
		}
		w.Ops = append(w.Ops, op)
	}

	// Normalize so the schedule's realized mean rate is exactly 1 op/s:
	// dividing offsets by realized-mean keeps the dispatcher's target-rate
	// math honest regardless of arrival process or diurnal shaping.
	if n := len(w.Ops); n > 0 && w.Ops[n-1].At > 0 {
		scale := float64(w.Ops[n-1].At) / (float64(n) * float64(time.Second))
		for i := range w.Ops {
			w.Ops[i].At = time.Duration(float64(w.Ops[i].At) / scale)
		}
	}
	return w, nil
}

// newArrivals returns a unit-mean inter-arrival sampler for the spec.
func newArrivals(spec WorkloadSpec, rng *rand.Rand) func() time.Duration {
	switch spec.Arrival {
	case ArrivalUniform:
		return func() time.Duration { return time.Second }
	case ArrivalBursty:
		// Markov-modulated: burst arrivals are BurstFactor× faster; slow
		// arrivals stretch to keep the overall mean at 1s. State flips
		// with a persistence of ~8 arrivals per dwell.
		fastMean := 1 / spec.BurstFactor
		slowMean := (1 - spec.BurstFraction*fastMean) / (1 - spec.BurstFraction)
		inBurst := false
		return func() time.Duration {
			if inBurst {
				if rng.Float64() < 1.0/8 {
					inBurst = false
				}
			} else if rng.Float64() < spec.BurstFraction/8/(1-spec.BurstFraction) {
				inBurst = true
			}
			mean := slowMean
			if inBurst {
				mean = fastMean
			}
			return time.Duration(rng.ExpFloat64() * mean * float64(time.Second))
		}
	default: // ArrivalPoisson
		return func() time.Duration {
			return time.Duration(rng.ExpFloat64() * float64(time.Second))
		}
	}
}

// hourlyWeights builds the diurnal profile: events per hour-of-day,
// normalized to mean 1 and clamped to [0.2, 3] so dead hours don't stall the
// schedule and peaks don't degenerate into a single spike.
func hourlyWeights(events []event.Event) [24]float64 {
	var counts [24]int
	for _, e := range events {
		counts[e.Time.Hour()]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	var w [24]float64
	for h := range w {
		if total == 0 {
			w[h] = 1
			continue
		}
		w[h] = 24 * float64(counts[h]) / float64(total)
		if w[h] < 0.2 {
			w[h] = 0.2
		}
		if w[h] > 3 {
			w[h] = 3
		}
	}
	return w
}

// nextChunk slices the next due ingest chunk off the replay window. When the
// window is exhausted the cursor wraps and every event is shifted one window
// length forward (lap), so replayed ingests stay time-monotone however long
// the schedule runs.
func nextChunk(window []event.Event, size, cursor, lap int, span time.Duration) ([]event.Event, int, int) {
	if len(window) == 0 {
		return nil, cursor, lap
	}
	if cursor >= len(window) {
		cursor = 0
		lap++
	}
	end := cursor + size
	if end > len(window) {
		end = len(window)
	}
	chunk := make([]event.Event, end-cursor)
	copy(chunk, window[cursor:end])
	shift := time.Duration(lap) * span
	for i := range chunk {
		chunk[i].ID = 0
		if shift > 0 {
			chunk[i].Time = chunk[i].Time.Add(shift)
		}
	}
	return chunk, end, lap
}

// dirtyChunk injects one of the two dirt patterns in place:
//
//   - oscillation: the chunk's first event is followed by four re-association
//     events alternating between its own AP and another AP at +1..+4s — the
//     unstable-connectivity pattern (a device flapping between overlapping
//     APs) that data-cleaning systems must not mistake for movement;
//   - out-of-order: the chunk arrives time-reversed, exercising the store's
//     tolerance for non-monotone ingest.
//
// The chunk keeps its length (oscillation overwrites the tail) so schedule
// geometry is independent of dirt.
func dirtyChunk(ds *Dataset, rng *rand.Rand, chunk []event.Event) {
	if len(chunk) < 2 {
		return
	}
	if rng.Float64() < 0.5 {
		// Oscillation burst after the first event.
		aps := ds.Building.AccessPoints()
		other := aps[rng.Intn(len(aps))]
		for other == chunk[0].AP && len(aps) > 1 {
			other = aps[rng.Intn(len(aps))]
		}
		n := 4
		if n > len(chunk)-1 {
			n = len(chunk) - 1
		}
		for i := 1; i <= n; i++ {
			e := chunk[0]
			e.Time = e.Time.Add(time.Duration(i) * time.Second)
			if i%2 == 1 {
				e.AP = other
			}
			chunk[i] = e
		}
	} else {
		for i, j := 0, len(chunk)-1; i < j; i, j = i+1, j-1 {
			chunk[i], chunk[j] = chunk[j], chunk[i]
		}
	}
}

// WriteCanonical serializes the schedule in a canonical line-oriented text
// form for golden-file tests: identical (dataset, spec) inputs must produce
// byte-identical output.
func (w *Workload) WriteCanonical(out io.Writer) error {
	spec := w.Spec
	if _, err := fmt.Fprintf(out,
		"workload ops=%d seed=%d read=%.3f batch=%.3f batchsize=%d chunk=%d arrival=%s burst=%.2fx%.2f diurnal=%t dirty=%.3f\nsimstart=%s window=%s history=%d\n",
		spec.Ops, spec.Seed, spec.ReadFraction, spec.BatchFraction, spec.BatchSize,
		spec.IngestChunk, spec.Arrival, spec.BurstFactor, spec.BurstFraction,
		spec.Diurnal, spec.DirtyFraction,
		w.SimStart.UTC().Format(time.RFC3339), w.Window, len(w.History),
	); err != nil {
		return err
	}
	for i, op := range w.Ops {
		switch op.Kind {
		case OpLocate:
			if _, err := fmt.Fprintf(out, "%d %d locate %s %s\n",
				i, op.At.Nanoseconds(), op.Query.Device,
				op.Query.Time.UTC().Format(time.RFC3339Nano)); err != nil {
				return err
			}
		case OpBatch:
			if _, err := fmt.Fprintf(out, "%d %d batch %d", i, op.At.Nanoseconds(), len(op.Batch)); err != nil {
				return err
			}
			for _, q := range op.Batch {
				if _, err := fmt.Fprintf(out, " %s@%s", q.Device, q.Time.UTC().Format(time.RFC3339Nano)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		case OpIngest:
			first, last := op.Events[0], op.Events[len(op.Events)-1]
			if _, err := fmt.Fprintf(out, "%d %d ingest %d dirty=%t %s@%s..%s@%s\n",
				i, op.At.Nanoseconds(), len(op.Events), op.Dirty,
				first.Device, first.Time.UTC().Format(time.RFC3339Nano),
				last.Device, last.Time.UTC().Format(time.RFC3339Nano)); err != nil {
				return err
			}
		}
	}
	return nil
}
