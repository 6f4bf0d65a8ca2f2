package sim

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func workloadDataset(t *testing.T) *Dataset {
	t.Helper()
	sc, err := Office(1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	ds, err := Generate(sc.Config(start, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestWorkloadDeterministic: the same (dataset, spec) pair must regenerate a
// byte-identical canonical schedule — the property the benchmark's golden
// op lists (benchmark/testdata/oplists-seed1.golden) stand on.
func TestWorkloadDeterministic(t *testing.T) {
	ds := workloadDataset(t)
	spec := WorkloadSpec{
		Ops: 400, Seed: 42, ReadFraction: 0.8, BatchFraction: 0.2,
		Arrival: ArrivalBursty, Diurnal: true, DirtyFraction: 0.3,
	}
	render := func() []byte {
		w, err := BuildWorkload(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.WriteCanonical(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed+spec produced different schedules")
	}
	// A different seed must actually change the schedule.
	spec.Seed = 43
	if c := render(); bytes.Equal(a, c) {
		t.Fatal("different seed produced identical schedule")
	}
}

// TestWorkloadMixAndSplit checks the op mix tracks the spec fractions, the
// history/replay split lands at SimStart, and the unit-rate normalization
// holds (mean inter-arrival = 1s).
func TestWorkloadMixAndSplit(t *testing.T) {
	ds := workloadDataset(t)
	spec := WorkloadSpec{Ops: 2000, Seed: 7, ReadFraction: 0.7, BatchFraction: 0.25}
	w, err := BuildWorkload(ds, spec)
	if err != nil {
		t.Fatal(err)
	}

	wantSplit := ds.Config.Start.AddDate(0, 0, ds.Config.Days-1)
	if !w.SimStart.Equal(wantSplit) {
		t.Errorf("SimStart = %v, want last day %v", w.SimStart, wantSplit)
	}
	for _, e := range w.History {
		if !e.Time.Before(w.SimStart) {
			t.Fatalf("history event at %v is not before SimStart %v", e.Time, w.SimStart)
		}
	}
	if len(w.History) == 0 || len(w.History) == len(ds.Events) {
		t.Fatalf("degenerate split: %d of %d events in history", len(w.History), len(ds.Events))
	}

	var locate, batch, ingest int
	for i, op := range w.Ops {
		switch op.Kind {
		case OpLocate:
			locate++
			if op.Query.Device == "" || !op.Query.Time.Before(w.SimStart) {
				t.Fatalf("op %d: locate query outside history span: %+v", i, op.Query)
			}
		case OpBatch:
			batch++
			if len(op.Batch) != 16 {
				t.Fatalf("op %d: batch size %d, want default 16", i, len(op.Batch))
			}
		case OpIngest:
			ingest++
			if len(op.Events) == 0 || len(op.Events) > 64 {
				t.Fatalf("op %d: ingest chunk of %d events", i, len(op.Events))
			}
			for _, e := range op.Events {
				if e.ID != 0 {
					t.Fatalf("op %d: ingest event carries pre-assigned ID %d", i, e.ID)
				}
				if e.Time.Before(w.SimStart) {
					t.Fatalf("op %d: ingest event at %v predates SimStart", i, e.Time)
				}
			}
		}
		if i > 0 && op.At < w.Ops[i-1].At {
			t.Fatalf("op %d: schedule not sorted (%v after %v)", i, op.At, w.Ops[i-1].At)
		}
	}

	reads := locate + batch
	if f := float64(reads) / float64(len(w.Ops)); math.Abs(f-0.7) > 0.05 {
		t.Errorf("read fraction = %.3f, want ≈ 0.7", f)
	}
	if f := float64(batch) / float64(reads); math.Abs(f-0.25) > 0.05 {
		t.Errorf("batch fraction of reads = %.3f, want ≈ 0.25", f)
	}
	if ingest == 0 {
		t.Error("no ingest ops with ReadFraction 0.7")
	}

	// Unit-rate: the last offset equals Ops seconds after normalization.
	last := w.Ops[len(w.Ops)-1].At
	if math.Abs(last.Seconds()-float64(spec.Ops)) > 1 {
		t.Errorf("normalized span = %v, want ≈ %ds", last, spec.Ops)
	}
}

// TestWorkloadDirtyInjection: with DirtyFraction 1 every (multi-event)
// ingest chunk carries dirt, and both patterns appear — oscillating
// re-associations (duplicate-timestamped bursts alternating APs) or
// time-reversed chunks.
func TestWorkloadDirtyInjection(t *testing.T) {
	ds := workloadDataset(t)
	w, err := BuildWorkload(ds, WorkloadSpec{
		Ops: 600, Seed: 3, ReadFraction: 0.2, DirtyFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var oscillating, reversed int
	for _, op := range w.Ops {
		if op.Kind != OpIngest || len(op.Events) < 2 {
			continue
		}
		if !op.Dirty {
			t.Fatal("DirtyFraction=1 left a clean multi-event chunk")
		}
		if op.Events[0].Time.After(op.Events[len(op.Events)-1].Time) {
			reversed++
		} else if op.Events[1].Time.Sub(op.Events[0].Time) <= 4*time.Second &&
			op.Events[1].Device == op.Events[0].Device {
			oscillating++
		}
	}
	if oscillating == 0 || reversed == 0 {
		t.Errorf("dirty patterns unbalanced: %d oscillating, %d reversed", oscillating, reversed)
	}
}

// TestWorkloadArrivalProcesses: every arrival process normalizes to unit
// rate; bursty produces a heavier tail (more sub-100ms gaps) than uniform.
func TestWorkloadArrivalProcesses(t *testing.T) {
	ds := workloadDataset(t)
	gaps := func(arrival string) (short int, n int) {
		w, err := BuildWorkload(ds, WorkloadSpec{Ops: 1500, Seed: 5, Arrival: arrival, ReadFraction: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(w.Ops); i++ {
			if w.Ops[i].At-w.Ops[i-1].At < 100*time.Millisecond {
				short++
			}
		}
		return short, len(w.Ops)
	}
	uShort, _ := gaps(ArrivalUniform)
	bShort, _ := gaps(ArrivalBursty)
	pShort, _ := gaps(ArrivalPoisson)
	if uShort != 0 {
		t.Errorf("uniform arrivals produced %d sub-100ms gaps", uShort)
	}
	if bShort <= pShort/2 {
		t.Errorf("bursty arrivals not bursty: %d short gaps vs poisson %d", bShort, pShort)
	}

	if _, err := BuildWorkload(ds, WorkloadSpec{Arrival: "warp"}); err == nil {
		t.Error("unknown arrival process accepted")
	}
}
