package coarse

import (
	"time"

	"locater/internal/event"
	"locater/internal/ml"
)

// populationModel lazily trains a building-wide model on the pooled,
// bootstrap-labeled gaps of every device with history. It serves devices
// with no connectivity history of their own (e.g. a person entering the
// building for the first time), per the paper's footnote 5: label such
// devices "based on aggregated location, e.g., most common label for other
// devices".
//
// Pooling uses only bootstrap labels (no per-device self-training): the
// population model captures building-wide rhythm (night gaps are outside,
// short daytime gaps are inside), not individual habits.
// populationModel is called with a model-shard lock held; popMu is always
// acquired after a shard lock (never the reverse), so the order is acyclic.
func (l *Localizer) populationModel(ref time.Time) *deviceModel {
	l.popMu.Lock()
	defer l.popMu.Unlock()
	if l.population != nil && !l.population.trainedAt.Before(ref) {
		return l.population
	}
	th := l.opts.Thresholds

	var labeled, rLabeled []labeledGap
	const maxDevices = 64 // bound population training cost
	devices := samplePopulation(l.store.Devices(), maxDevices)
	for _, dev := range devices {
		gaps, hist, _, err := l.history(dev, ref)
		if err != nil {
			continue
		}
		const maxGapsPerDevice = 50
		if len(gaps) > maxGapsPerDevice {
			gaps = gaps[len(gaps)-maxGapsPerDevice:]
		}
		secs := newDaySeconds(hist)
		for _, g := range gaps {
			// Unlike per-device training, midnight-spanning gaps stay in
			// the population pool when they are long: overnight absences
			// are the clearest building-wide "outside" examples.
			if gapSpansDays(g) && g.Duration() < th.TauHigh {
				continue
			}
			switch {
			case g.Duration() <= th.TauLow:
				x := l.featurize(g, secs.count(g)).Vector()
				labeled = append(labeled, labeledGap{x: x, label: classInside})
				gs, okS := l.building.RegionOf(g.PrevEvent.AP)
				ge, okE := l.building.RegionOf(g.NextEvent.AP)
				if okS && okE && gs == ge {
					rLabeled = append(rLabeled, labeledGap{x: x, label: l.regionIdx[gs]})
				}
			case g.Duration() >= th.TauHigh:
				labeled = append(labeled, labeledGap{x: l.featurize(g, secs.count(g)).Vector(), label: classOutside})
			}
			// Gaps between the thresholds carry no bootstrap label and are
			// not pooled, so they are not featurized.
		}
	}
	if len(labeled) == 0 {
		return nil
	}

	m := &deviceModel{trainedAt: ref, numGaps: len(labeled)}
	clf, maj, err := l.selfTrain(labeled, nil, 2)
	if err != nil {
		return nil
	}
	m.insideModel, m.insideMajority = clf, maj
	rclf, rmaj, err := l.selfTrain(rLabeled, nil, len(l.regions))
	if err != nil {
		m.regionMajority = &ml.MajorityClassifier{Class: 0}
	} else {
		m.regionModel, m.regionMajority = rclf, rmaj
	}
	l.population = m
	return m
}

// samplePopulation bounds the population-training pool to at most max
// devices with a deterministic, even stride across the full sorted device
// list. Taking a prefix instead (the pre-fix behavior) trained the
// building-wide model on the 64 lexicographically-smallest MAC addresses —
// a biased sample when ID prefixes correlate with vendor, cohort, or
// arrival order. The stride keeps the pool representative of the whole
// population while staying reproducible across rebuilds.
func samplePopulation(devices []event.DeviceID, max int) []event.DeviceID {
	if max <= 0 || len(devices) <= max {
		return devices
	}
	stride := float64(len(devices)) / float64(max)
	out := make([]event.DeviceID, 0, max)
	for i := 0; i < max; i++ {
		// Midpoint sampling: index floor((i+0.5)·stride) — strictly
		// increasing because stride > 1, and spanning the first through
		// the last stride-window of the list.
		out = append(out, devices[int((float64(i)+0.5)*stride)])
	}
	return out
}
