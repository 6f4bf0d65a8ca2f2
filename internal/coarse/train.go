package coarse

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"locater/internal/event"
	"locater/internal/ml"
	"locater/internal/space"
)

// labeledGap pairs a gap's feature vector with its (possibly
// bootstrap-assigned) class label.
type labeledGap struct {
	x     []float64
	label int
}

// deviceModel holds the two classifiers trained for one device: the
// inside/outside model and the region model. The region model's label space
// is the Localizer's region list (l.regions).
type deviceModel struct {
	// insideModel classifies {0: inside, 1: outside}. nil when training
	// degenerated to a single class; then insideMajority applies.
	insideModel    *ml.Classifier
	insideMajority *ml.MajorityClassifier

	// regionModel classifies over the building's regions. nil when
	// degenerate; then regionMajority applies.
	regionModel    *ml.Classifier
	regionMajority *ml.MajorityClassifier

	trainedAt time.Time
	numGaps   int

	// answers memoizes the device's closed-gap answers (Localizer.answerGap),
	// at most maxGapAnswers of them. The classifiers above never change; the
	// memo grows under answersMu.
	answersMu sync.Mutex
	answers   map[gapKey]gapAnswer
}

const (
	classInside  = 0
	classOutside = 1
)

// model returns (training on demand) the device's classifiers. The model
// cache's shard lock stays held across training (cache.GetOrCompute) so
// concurrent queries for the same device train exactly once; devices hashed
// to other shards proceed in parallel. Trained classifiers are immutable, so
// the returned *deviceModel is safe to use after the shard lock is released —
// even after the entry is later evicted or invalidated.
func (l *Localizer) model(d event.DeviceID) (*deviceModel, error) {
	return l.models.GetOrCompute(d, func() (*deviceModel, error) {
		return l.train(d)
	})
}

// train builds the per-device model: extract gaps from the history window,
// bootstrap-label the easy ones, run Algorithm 1 twice (building level, then
// region level for inside gaps).
func (l *Localizer) train(d event.DeviceID) (*deviceModel, error) {
	trainStart := time.Now()
	defer func() {
		l.trainNanos.Add(time.Since(trainStart).Nanoseconds())
		l.trains.Add(1)
	}()
	_, maxT, ok := l.store.TimeBounds()
	if !ok {
		return nil, fmt.Errorf("coarse: empty store, cannot train model for %s", d)
	}
	hist := l.historyEvents(d, maxT)
	tl, err := event.NewTimeline(d, l.store.Delta(d), hist)
	if err != nil {
		return nil, fmt.Errorf("coarse: building timeline for %s: %w", d, err)
	}
	gaps := tl.Gaps()
	if l.opts.MaxTrainingGaps > 0 && len(gaps) > l.opts.MaxTrainingGaps {
		gaps = gaps[len(gaps)-l.opts.MaxTrainingGaps:]
	}

	m := &deviceModel{trainedAt: maxT, numGaps: len(gaps)}
	if len(gaps) == 0 {
		// No history gaps at all: the paper's footnote 5 labels such
		// devices from aggregate behaviour ("most common label for other
		// devices") — use the population model trained on every device's
		// bootstrap-labeled gaps.
		if pm := l.populationModel(maxT); pm != nil {
			// Share the classifiers, not the answers: those read this
			// device's history.
			return &deviceModel{
				insideModel: pm.insideModel, insideMajority: pm.insideMajority,
				regionModel: pm.regionModel, regionMajority: pm.regionMajority,
				trainedAt: pm.trainedAt, numGaps: pm.numGaps,
			}, nil
		}
		m.insideMajority = &ml.MajorityClassifier{Class: classInside}
		m.regionMajority = &ml.MajorityClassifier{Class: 0}
		return m, nil
	}

	th := l.opts.Thresholds
	secs := newDaySeconds(hist)

	// --- Stage 1: inside/outside -------------------------------------
	var labeled []labeledGap
	var unlabeled [][]float64
	// Bootstrap-inside gaps feed stage 2 with the features computed here.
	type insideGap struct {
		g event.Gap
		x []float64
	}
	var insideGaps []insideGap
	for _, g := range gaps {
		if gapSpansDays(g) {
			continue // paper assumes gaps do not span multiple days
		}
		x := l.featurize(g, secs.count(g)).Vector()
		switch {
		case g.Duration() <= th.TauLow:
			labeled = append(labeled, labeledGap{x: x, label: classInside})
			insideGaps = append(insideGaps, insideGap{g: g, x: x})
		case g.Duration() >= th.TauHigh:
			labeled = append(labeled, labeledGap{x: x, label: classOutside})
		default:
			unlabeled = append(unlabeled, x)
		}
	}
	insideClf, insideMaj, err := l.selfTrain(labeled, unlabeled, 2)
	if err != nil {
		return nil, fmt.Errorf("coarse: training inside/outside model for %s: %w", d, err)
	}
	m.insideModel = insideClf
	m.insideMajority = insideMaj

	// --- Stage 2: region ----------------------------------------------
	// Label space: the building's regions in sorted order.
	var rLabeled []labeledGap
	var rUnlabeled [][]float64
	for _, ig := range insideGaps {
		g := ig.g
		gs, okS := l.building.RegionOf(g.PrevEvent.AP)
		ge, okE := l.building.RegionOf(g.NextEvent.AP)
		switch {
		case okS && okE && gs == ge:
			rLabeled = append(rLabeled, labeledGap{x: ig.x, label: l.regionIdx[gs]})
		case g.Duration() <= th.RegionTauLow:
			// Short ambiguous gap: most-visited-region heuristic.
			eventAt := func(i int) (int, space.APID) { return secondOfDay(hist[i].Time), hist[i].AP }
			if r, ok := l.mostVisitedRegion(len(hist), eventAt, g); ok {
				rLabeled = append(rLabeled, labeledGap{x: ig.x, label: l.regionIdx[r]})
			} else if okS {
				rLabeled = append(rLabeled, labeledGap{x: ig.x, label: l.regionIdx[gs]})
			}
		case g.Duration() <= th.RegionTauHigh:
			rUnlabeled = append(rUnlabeled, ig.x)
		default:
			// Long inside gaps are too uncertain for region training.
		}
	}
	regionClf, regionMaj, err := l.selfTrain(rLabeled, rUnlabeled, len(l.regions))
	if err != nil {
		return nil, fmt.Errorf("coarse: training region model for %s: %w", d, err)
	}
	m.regionModel = regionClf
	m.regionMajority = regionMaj
	return m, nil
}

// selfTrain implements Algorithm 1. Starting from the bootstrap-labeled set,
// it repeatedly trains a classifier, predicts every unlabeled gap, and
// promotes the most confident prediction(s) (variance of the prediction
// array) into the labeled set; it returns the classifier trained in the last
// round. Degenerate label sets yield a majority classifier instead.
func (l *Localizer) selfTrain(labeled []labeledGap, unlabeled [][]float64, numClasses int) (*ml.Classifier, *ml.MajorityClassifier, error) {
	if len(labeled) == 0 {
		return nil, &ml.MajorityClassifier{Class: 0}, nil
	}
	distinct := distinctLabels(labeled)
	if distinct < 2 {
		return nil, &ml.MajorityClassifier{Class: labeled[0].label, Total: len(labeled)}, nil
	}

	work := make([]labeledGap, len(labeled))
	copy(work, labeled)
	pending := make([][]float64, len(unlabeled))
	copy(pending, unlabeled)

	var clf *ml.Classifier
	var err error
	for {
		clf, err = ml.Train(examplesOf(work), numClasses, ml.Options{})
		if err != nil {
			return nil, nil, err
		}
		if len(pending) == 0 {
			return clf, nil, nil
		}
		// Score every pending gap; promote the top-k by confidence.
		type scored struct {
			idx   int
			label int
			conf  float64
		}
		best := make([]scored, 0, len(pending))
		for i, x := range pending {
			probs, label, perr := clf.Predict(x)
			if perr != nil {
				return nil, nil, perr
			}
			best = append(best, scored{idx: i, label: label, conf: ml.Variance(probs)})
		}
		sort.Slice(best, func(i, j int) bool {
			if best[i].conf != best[j].conf {
				return best[i].conf > best[j].conf
			}
			return best[i].idx < best[j].idx
		})
		k := l.opts.MaxPromotionsPerRound
		if k > len(best) {
			k = len(best)
		}
		promoted := make(map[int]bool, k)
		for _, s := range best[:k] {
			work = append(work, labeledGap{x: pending[s.idx], label: s.label})
			promoted[s.idx] = true
		}
		next := pending[:0]
		for i, x := range pending {
			if !promoted[i] {
				next = append(next, x)
			}
		}
		pending = next
	}
}

func distinctLabels(gaps []labeledGap) int {
	seen := make(map[int]bool)
	for _, g := range gaps {
		seen[g.label] = true
	}
	return len(seen)
}

func examplesOf(gaps []labeledGap) []ml.Example {
	out := make([]ml.Example, len(gaps))
	for i, g := range gaps {
		out[i] = ml.Example{Features: g.x, Label: g.label}
	}
	return out
}

// predictInside classifies a gap's feature vector as inside (true) or
// outside (false) with a confidence equal to the winning probability.
func (m *deviceModel) predictInside(x []float64) (bool, float64) {
	if m.insideModel == nil {
		probs, label := m.insideMajority.Predict(2)
		return label == classInside, probs[maxIdx(probs)]
	}
	probs, label, err := m.insideModel.Predict(x)
	if err != nil {
		return true, 0.5
	}
	return label == classInside, probs[label]
}

// predictRegion returns the region, one of regions (the model's label
// space), with its probability; fallback is called for the answer when the
// model is degenerate and carries no information, or fails.
func (m *deviceModel) predictRegion(x []float64, regions []space.RegionID, fallback func() space.RegionID) (space.RegionID, float64) {
	if len(regions) == 0 {
		return fallback(), 1
	}
	if m.regionModel == nil {
		if m.regionMajority != nil && m.regionMajority.Total > 0 {
			_, label := m.regionMajority.Predict(len(regions))
			if label >= 0 && label < len(regions) {
				return regions[label], 1
			}
		}
		return fallback(), 1
	}
	probs, label, err := m.regionModel.Predict(x)
	if err != nil || label < 0 || label >= len(regions) {
		return fallback(), 0.5
	}
	return regions[label], probs[label]
}

func maxIdx(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
