package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// linearlySeparable builds a 2-class dataset split by x0 > 0.
func linearlySeparable(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		x0 := rng.NormFloat64()
		x1 := rng.NormFloat64()
		label := 0
		if x0 > 0 {
			label = 1
		}
		out[i] = Example{Features: []float64{x0*3 + 0.5*x1, x1}, Label: label}
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, 2, Options{}); err != ErrNoData {
		t.Errorf("nil examples: err = %v, want ErrNoData", err)
	}
	ex := []Example{{Features: []float64{1}, Label: 0}}
	if _, err := Train(ex, 1, Options{}); err == nil {
		t.Error("numClasses < 2 should fail")
	}
	if _, err := Train([]Example{{Features: nil, Label: 0}}, 2, Options{}); err == nil {
		t.Error("zero-dim features should fail")
	}
	bad := []Example{{Features: []float64{1}, Label: 0}, {Features: []float64{1, 2}, Label: 1}}
	if _, err := Train(bad, 2, Options{}); err == nil {
		t.Error("ragged features should fail")
	}
	oob := []Example{{Features: []float64{1}, Label: 5}}
	if _, err := Train(oob, 2, Options{}); err == nil {
		t.Error("out-of-range label should fail")
	}
}

func TestTrainSeparable(t *testing.T) {
	examples := linearlySeparable(200, 42)
	clf, err := Train(examples, 2, Options{Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, ex := range examples {
		_, label, err := clf.Predict(ex.Features)
		if err != nil {
			t.Fatal(err)
		}
		if label == ex.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(examples))
	if acc < 0.95 {
		t.Errorf("training accuracy %.2f < 0.95 on separable data", acc)
	}
}

func TestTrainMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var examples []Example
	centers := [][]float64{{-4, 0}, {4, 0}, {0, 5}}
	for i := 0; i < 300; i++ {
		c := i % 3
		examples = append(examples, Example{
			Features: []float64{centers[c][0] + rng.NormFloat64()*0.5, centers[c][1] + rng.NormFloat64()*0.5},
			Label:    c,
		})
	}
	clf, err := Train(examples, 3, Options{Epochs: 400})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, ex := range examples {
		_, label, _ := clf.Predict(ex.Features)
		if label == ex.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(examples)); acc < 0.95 {
		t.Errorf("multiclass accuracy %.2f < 0.95", acc)
	}
	if clf.NumClasses() != 3 || clf.NumFeatures() != 2 {
		t.Errorf("dims = %d classes, %d features", clf.NumClasses(), clf.NumFeatures())
	}
}

func TestPredictProbabilitiesSumToOne(t *testing.T) {
	examples := linearlySeparable(100, 3)
	clf, err := Train(examples, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples[:10] {
		probs, _, err := clf.Predict(ex.Features)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", probs)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestPredictDimensionMismatch(t *testing.T) {
	clf, err := Train(linearlySeparable(50, 1), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := clf.Predict([]float64{1, 2, 3}); err == nil {
		t.Error("wrong feature count should fail")
	}
}

func TestTrainLossNonIncreasing(t *testing.T) {
	examples := linearlySeparable(150, 11)
	clf, err := Train(examples, 2, Options{Epochs: 150, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	losses := clf.TrainLoss()
	if len(losses) < 2 {
		t.Fatalf("too few loss samples: %d", len(losses))
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1]+1e-6 {
			t.Fatalf("loss increased at epoch %d: %v -> %v", i, losses[i-1], losses[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	examples := linearlySeparable(100, 5)
	a, err := Train(examples, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(examples, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples[:20] {
		pa, la, _ := a.Predict(ex.Features)
		pb, lb, _ := b.Predict(ex.Features)
		if la != lb {
			t.Fatal("labels differ across identical training runs")
		}
		for i := range pa {
			if math.Abs(pa[i]-pb[i]) > 1e-12 {
				t.Fatal("probabilities differ across identical training runs")
			}
		}
	}
}

func TestVariance(t *testing.T) {
	if Variance(nil) != 0 {
		t.Error("variance of empty slice should be 0")
	}
	flat := Variance([]float64{0.5, 0.5})
	peaked := Variance([]float64{0.99, 0.01})
	if flat != 0 {
		t.Errorf("flat variance = %v, want 0", flat)
	}
	if peaked <= flat {
		t.Error("peaked distribution should have higher variance than flat")
	}
	// Confidence ordering: more peaked → higher variance.
	mid := Variance([]float64{0.7, 0.3})
	if !(peaked > mid && mid > flat) {
		t.Errorf("variance ordering violated: %v %v %v", peaked, mid, flat)
	}
}

func TestScaler(t *testing.T) {
	examples := []Example{
		{Features: []float64{10, 5, 3}},
		{Features: []float64{20, 5, 1}},
		{Features: []float64{30, 5, 2}},
	}
	s := FitScaler(examples)
	// Constant feature (index 1) must pass through with std clamped to 1.
	if s.Std[1] != 1 {
		t.Errorf("constant feature std = %v, want 1", s.Std[1])
	}
	x := make([]float64, 3)
	s.transformInto(x, []float64{20, 5, 2})
	if math.Abs(x[0]) > 1e-9 {
		t.Errorf("mean-centered value = %v, want 0", x[0])
	}
	if math.Abs(x[1]) > 1e-9 {
		t.Errorf("constant feature transforms to %v, want 0", x[1])
	}
	// Empty scaler copies input.
	empty := &Scaler{}
	y := make([]float64, 2)
	empty.transformInto(y, []float64{1, 2})
	if y[0] != 1 || y[1] != 2 {
		t.Errorf("empty scaler mangled input: %v", y)
	}
}

func TestMajorityClassifier(t *testing.T) {
	m := &MajorityClassifier{Class: 1, Total: 10}
	probs, label := m.Predict(3)
	if label != 1 || probs[1] != 1 || probs[0] != 0 || probs[2] != 0 {
		t.Errorf("majority predict = %v %d", probs, label)
	}
	// Out-of-range class yields zero vector.
	m2 := &MajorityClassifier{Class: 5}
	probs, _ = m2.Predict(2)
	if probs[0] != 0 || probs[1] != 0 {
		t.Errorf("out-of-range majority = %v", probs)
	}
}

// Property: prediction arrays always sum to 1 and variance is non-negative
// and bounded by 0.25 for 2 classes.
func TestPredictionArrayProperty(t *testing.T) {
	examples := linearlySeparable(80, 123)
	clf, err := Train(examples, 2, Options{Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		probs, _, err := clf.Predict([]float64{a, b})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range probs {
			sum += p
		}
		v := Variance(probs)
		return math.Abs(sum-1) < 1e-6 && v >= 0 && v <= 0.25+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refClassifier is Classifier's layout before the flat kernel: one weight
// row per class.
type refClassifier struct {
	numClasses  int
	numFeatures int
	weights     [][]float64
	biases      []float64
	scaler      *Scaler
	trainLoss   []float64
}

// referenceTrain is Train as it was before the flat kernel (22df147),
// unchanged but for the classifier type it builds. TestTrainMatchesReference
// holds the kernel to it bit for bit. It keeps its own copies of the parent's
// Scaler.Transform and softmaxInPlace (refTransform, refSoftmaxInPlace) and
// shares only FitScaler, which this change leaves untouched.
func referenceTrain(examples []Example, numClasses int, opts Options) (*refClassifier, error) {
	if len(examples) == 0 {
		return nil, ErrNoData
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("ml: numClasses %d < 2", numClasses)
	}
	nf := len(examples[0].Features)
	if nf == 0 {
		return nil, errors.New("ml: zero-dimensional features")
	}
	for i, ex := range examples {
		if len(ex.Features) != nf {
			return nil, fmt.Errorf("ml: example %d has %d features, want %d", i, len(ex.Features), nf)
		}
		if ex.Label < 0 || ex.Label >= numClasses {
			return nil, fmt.Errorf("ml: example %d has label %d outside [0,%d)", i, ex.Label, numClasses)
		}
	}
	opts = opts.withDefaults()

	scaler := FitScaler(examples)
	x := make([][]float64, len(examples))
	for i, ex := range examples {
		x[i] = refTransform(scaler, ex.Features)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	c := &refClassifier{
		numClasses:  numClasses,
		numFeatures: nf,
		weights:     make([][]float64, numClasses),
		biases:      make([]float64, numClasses),
		scaler:      scaler,
	}
	for k := 0; k < numClasses; k++ {
		c.weights[k] = make([]float64, nf)
		for f := 0; f < nf; f++ {
			c.weights[k][f] = (rng.Float64() - 0.5) * 0.01
		}
	}

	n := float64(len(examples))
	probs := make([]float64, numClasses)
	gradW := make([][]float64, numClasses)
	gradB := make([]float64, numClasses)
	for k := range gradW {
		gradW[k] = make([]float64, nf)
	}
	prevLoss := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for k := 0; k < numClasses; k++ {
			gradB[k] = 0
			for f := 0; f < nf; f++ {
				gradW[k][f] = 0
			}
		}
		loss := 0.0
		for i, ex := range examples {
			c.logits(x[i], probs)
			refSoftmaxInPlace(probs)
			p := probs[ex.Label]
			if p < 1e-15 {
				p = 1e-15
			}
			loss -= math.Log(p)
			for k := 0; k < numClasses; k++ {
				d := probs[k]
				if k == ex.Label {
					d -= 1
				}
				gradB[k] += d
				xi := x[i]
				gw := gradW[k]
				for f := 0; f < nf; f++ {
					gw[f] += d * xi[f]
				}
			}
		}
		// L2 penalty and parameter update.
		for k := 0; k < numClasses; k++ {
			wk := c.weights[k]
			gw := gradW[k]
			for f := 0; f < nf; f++ {
				loss += 0.5 * opts.L2 * wk[f] * wk[f]
				g := gw[f]/n + opts.L2*wk[f]
				wk[f] -= opts.LearningRate * g
			}
			c.biases[k] -= opts.LearningRate * gradB[k] / n
		}
		loss /= n
		c.trainLoss = append(c.trainLoss, loss)
		if opts.Tolerance > 0 && prevLoss-loss < opts.Tolerance && epoch > 5 {
			break
		}
		prevLoss = loss
	}
	return c, nil
}

// logits writes w_k·x + b_k into out (len == numClasses).
func (c *refClassifier) logits(x []float64, out []float64) {
	for k := 0; k < c.numClasses; k++ {
		s := c.biases[k]
		wk := c.weights[k]
		for f, v := range x {
			s += wk[f] * v
		}
		out[k] = s
	}
}

// Predict is Classifier.Predict as it was before the flat kernel.
func (c *refClassifier) Predict(features []float64) ([]float64, int, error) {
	if len(features) != c.numFeatures {
		return nil, 0, fmt.Errorf("ml: predict with %d features, want %d", len(features), c.numFeatures)
	}
	x := refTransform(c.scaler, features)
	probs := make([]float64, c.numClasses)
	c.logits(x, probs)
	refSoftmaxInPlace(probs)
	best := 0
	for k := 1; k < c.numClasses; k++ {
		if probs[k] > probs[best] {
			best = k
		}
	}
	return probs, best, nil
}

// refTransform is Scaler.Transform as it was at 22df147.
func refTransform(s *Scaler, x []float64) []float64 {
	out := make([]float64, len(x))
	for f, v := range x {
		if f < len(s.Mean) {
			v = (v - s.Mean[f]) / s.Std[f]
		}
		switch {
		case math.IsNaN(v):
			v = 0
		case v > transformClamp:
			v = transformClamp
		case v < -transformClamp:
			v = -transformClamp
		}
		out[f] = v
	}
	return out
}

// TestExpOfZeroIsOne pins the premise of expShifted's skipped call.
func TestExpOfZeroIsOne(t *testing.T) {
	for _, z := range []float64{0, math.Copysign(0, -1)} {
		if got := math.Exp(z); math.Float64bits(got) != math.Float64bits(1) {
			t.Errorf("math.Exp(%v) = %v, want exactly 1", z, got)
		}
	}
}

// refSoftmaxInPlace is softmaxInPlace as it was at 22df147.
func refSoftmaxInPlace(z []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range z {
		e := math.Exp(v - max)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
}

// randomExamples draws n labeled examples of the given width. Feature 1 is
// constant (the scaler's clamped-std path) and labels depend on feature 0,
// so the fit has signal to find.
func randomExamples(rng *rand.Rand, n, width, classes int) []Example {
	out := make([]Example, n)
	for i := range out {
		f := make([]float64, width)
		for j := range f {
			f[j] = rng.NormFloat64() * float64(1+j) * 100
		}
		if width > 1 {
			f[1] = 7
		}
		label := int(math.Abs(f[0])/50) % classes
		if rng.Intn(5) == 0 {
			label = rng.Intn(classes)
		}
		out[i] = Example{Features: f, Label: label}
	}
	return out
}

// TestTrainMatchesReference is the kernel property: across feature widths
// (8 takes the straight-line body, the rest the flat loop), class counts and
// with and without the early stop, every per-epoch loss and every predicted
// probability is bit-identical to referenceTrain's.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	stopped := false
	for _, width := range []int{1, 3, 8, 9} {
		for _, classes := range []int{2, 5, 64} {
			for _, tol := range []float64{-1, 1e-3} {
				name := fmt.Sprintf("width=%d/classes=%d/tol=%g", width, classes, tol)
				examples := randomExamples(rng, 40+3*classes, width, classes)
				opts := Options{Epochs: 60, LearningRate: 0.3, Tolerance: tol, Seed: int64(width*100 + classes)}
				got, err := Train(examples, classes, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := referenceTrain(examples, classes, opts)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				gl, wl := got.TrainLoss(), want.trainLoss
				if len(gl) != len(wl) {
					t.Fatalf("%s: %d epochs, reference ran %d", name, len(gl), len(wl))
				}
				stopped = stopped || len(wl) < opts.Epochs
				for e := range wl {
					if math.Float64bits(gl[e]) != math.Float64bits(wl[e]) {
						t.Fatalf("%s: epoch %d loss %v, reference %v", name, e, gl[e], wl[e])
					}
				}
				for _, probe := range randomExamples(rng, 20, width, classes) {
					gp, glab, err := got.Predict(probe.Features)
					if err != nil {
						t.Fatal(err)
					}
					wp, wlab, _ := want.Predict(probe.Features)
					if glab != wlab {
						t.Fatalf("%s: label %d, reference %d", name, glab, wlab)
					}
					for k := range wp {
						if math.Float64bits(gp[k]) != math.Float64bits(wp[k]) {
							t.Fatalf("%s: class %d probability %v, reference %v", name, k, gp[k], wp[k])
						}
					}
				}
			}
		}
	}
	if !stopped {
		t.Error("no configuration stopped early; the early-stop path is untested")
	}
}
