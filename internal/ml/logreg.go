// Package ml is LOCATER's machine-learning substrate: a from-scratch,
// stdlib-only multinomial (softmax) logistic regression with L2
// regularization, feature standardization, and the prediction-array variance
// that the semi-supervised self-training loop of the coarse-grained
// localization algorithm uses as its confidence score (paper Section 3).
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Example is one training instance: a dense feature vector and an integer
// class label in [0, numClasses).
type Example struct {
	Features []float64
	Label    int
}

// Options configures training.
type Options struct {
	// Epochs is the number of full gradient-descent passes. Default 200.
	Epochs int
	// LearningRate is the GD step size. Default 0.1.
	LearningRate float64
	// L2 is the ridge penalty on weights (not biases). Default 1e-3.
	L2 float64
	// Seed drives deterministic weight initialization. Default 1.
	Seed int64
	// Tolerance stops training early when the loss improvement between
	// epochs falls below it. Default 1e-7 (set negative to disable).
	Tolerance float64
}

func (o Options) withDefaults() Options {
	if o.Epochs <= 0 {
		o.Epochs = 200
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-7
	}
	return o
}

// Classifier is a trained softmax regression model. The zero value is not
// usable; construct with Train.
type Classifier struct {
	numClasses  int
	numFeatures int
	// weights is row-major, weights[c*numFeatures+f]; biases[c].
	weights []float64
	biases  []float64
	scaler  *Scaler
	// trainLoss records the regularized negative log-likelihood per epoch.
	trainLoss []float64
}

// ErrNoData is returned when Train receives no examples.
var ErrNoData = errors.New("ml: no training examples")

// Train fits a softmax logistic regression on the examples. numClasses must
// cover every label. Features are standardized internally; the scaler is
// stored in the classifier and applied on prediction.
//
// Weights, gradients and standardized inputs live in flat row-major slices;
// each example takes three passes over the classes (logits with their max,
// exps, then the softmax division fused with the gradient), and 8-feature
// inputs (coarse's gap features) take straight-line logit and gradient
// bodies with the example held in registers. Every accumulator adds its
// terms in the order of the textbook nested loops, so the model is
// bit-identical to theirs.
func Train(examples []Example, numClasses int, opts Options) (*Classifier, error) {
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
	x := make([]float64, len(examples)*nf)
	for i, ex := range examples {
		scaler.transformInto(x[i*nf:(i+1)*nf], ex.Features)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	c := &Classifier{
		numClasses:  numClasses,
		numFeatures: nf,
		weights:     make([]float64, numClasses*nf),
		biases:      make([]float64, numClasses),
		scaler:      scaler,
	}
	for i := range c.weights {
		c.weights[i] = (rng.Float64() - 0.5) * 0.01
	}

	n := float64(len(examples))
	z := make([]float64, numClasses)
	gradW := make([]float64, numClasses*nf)
	gradB := make([]float64, numClasses)
	prevLoss := math.Inf(1)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		clear(gradW)
		clear(gradB)
		loss := 0.0
		for i, ex := range examples {
			xi := x[i*nf : (i+1)*nf]
			sum := expShifted(z, c.logits(xi, z))
			p := z[ex.Label] / sum
			if p < 1e-15 {
				p = 1e-15
			}
			loss -= math.Log(p)
			addGradient(gradW, gradB, z, sum, ex.Label, xi)
		}
		// L2 penalty and parameter update.
		for i, w := range c.weights {
			loss += 0.5 * opts.L2 * w * w
			g := gradW[i]/n + opts.L2*w
			c.weights[i] = w - opts.LearningRate*g
		}
		for k, gb := range gradB {
			c.biases[k] -= opts.LearningRate * gb / n
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

// logits writes w_k·x + b_k into out (len == numClasses), summing from the
// bias through the features in order, and returns the largest (the first
// one on a tie or NaN, as the textbook max scan keeps it).
func (c *Classifier) logits(x []float64, out []float64) (max float64) {
	nf := c.numFeatures
	b := c.biases[:len(out)]
	if nf == 8 {
		x8 := (*[8]float64)(x)
		x0, x1, x2, x3, x4, x5, x6, x7 := x8[0], x8[1], x8[2], x8[3], x8[4], x8[5], x8[6], x8[7]
		w := c.weights[:len(out)*8]
		for k := range out {
			wk := (*[8]float64)(w[k*8:])
			s := b[k] + wk[0]*x0 + wk[1]*x1 + wk[2]*x2 + wk[3]*x3 + wk[4]*x4 + wk[5]*x5 + wk[6]*x6 + wk[7]*x7
			out[k] = s
			if k == 0 || s > max {
				max = s
			}
		}
		return max
	}
	for k := range out {
		s := b[k]
		for f, w := range c.weights[k*nf : (k+1)*nf] {
			s += w * x[f]
		}
		out[k] = s
		if k == 0 || s > max {
			max = s
		}
	}
	return max
}

// expShifted replaces each z[k] by exp(z[k] - max) and returns their sum.
// The shift is exactly 0 at the maximum, whose exp is exactly 1, so that
// call is skipped.
func expShifted(z []float64, max float64) float64 {
	sum := 0.0
	for i, v := range z {
		e := 1.0
		if d := v - max; d != 0 {
			e = math.Exp(d)
		}
		z[i] = e
		sum += e
	}
	return sum
}

// addGradient adds one example's logit gradient, the softmax e[k]/sum minus
// the one-hot label: d to gradB[k] and d·x to row k of gradW. The softmax
// division happens here rather than in a pass of its own.
func addGradient(gradW, gradB, e []float64, sum float64, label int, x []float64) {
	nf := len(x)
	gradB = gradB[:len(e)]
	if nf == 8 {
		x8 := (*[8]float64)(x)
		x0, x1, x2, x3, x4, x5, x6, x7 := x8[0], x8[1], x8[2], x8[3], x8[4], x8[5], x8[6], x8[7]
		gradW = gradW[:len(e)*8]
		for k, ek := range e {
			d := ek / sum
			if k == label {
				d -= 1
			}
			gradB[k] += d
			g := (*[8]float64)(gradW[k*8:])
			g[0] += d * x0
			g[1] += d * x1
			g[2] += d * x2
			g[3] += d * x3
			g[4] += d * x4
			g[5] += d * x5
			g[6] += d * x6
			g[7] += d * x7
		}
		return
	}
	for k, ek := range e {
		d := ek / sum
		if k == label {
			d -= 1
		}
		gradB[k] += d
		g := gradW[k*nf : (k+1)*nf]
		for f, v := range x {
			g[f] += d * v
		}
	}
}

// Predict returns the probability array over classes (summing to 1) and the
// arg-max label for the feature vector. This is the paper's
// Predict(classifier, gap) returning (prediction array, label).
func (c *Classifier) Predict(features []float64) ([]float64, int, error) {
	if len(features) != c.numFeatures {
		return nil, 0, fmt.Errorf("ml: predict with %d features, want %d", len(features), c.numFeatures)
	}
	buf := make([]float64, c.numFeatures+c.numClasses)
	x, probs := buf[:c.numFeatures], buf[c.numFeatures:]
	c.scaler.transformInto(x, features)
	sum := expShifted(probs, c.logits(x, probs))
	for k := range probs {
		probs[k] /= sum
	}
	best := 0
	for k := 1; k < c.numClasses; k++ {
		if probs[k] > probs[best] {
			best = k
		}
	}
	return probs, best, nil
}

// NumClasses returns the model's class count.
func (c *Classifier) NumClasses() int { return c.numClasses }

// NumFeatures returns the model's input dimensionality.
func (c *Classifier) NumFeatures() int { return c.numFeatures }

// TrainLoss returns the per-epoch regularized training loss (diagnostics).
func (c *Classifier) TrainLoss() []float64 { return c.trainLoss }

// Variance returns the population variance of a prediction array. The
// self-training loop uses it as the confidence of a prediction: a peaked
// distribution (one label much more likely than the rest) has high variance,
// a flat one has variance near zero (paper Section 3).
func Variance(probs []float64) float64 {
	if len(probs) == 0 {
		return 0
	}
	mean := 0.0
	for _, p := range probs {
		mean += p
	}
	mean /= float64(len(probs))
	v := 0.0
	for _, p := range probs {
		d := p - mean
		v += d * d
	}
	return v / float64(len(probs))
}

// Scaler standardizes features to zero mean and unit variance. Constant
// features pass through unchanged (their std is clamped to 1).
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-feature mean and standard deviation.
func FitScaler(examples []Example) *Scaler {
	if len(examples) == 0 {
		return &Scaler{}
	}
	nf := len(examples[0].Features)
	mean := make([]float64, nf)
	std := make([]float64, nf)
	for _, ex := range examples {
		for f, v := range ex.Features {
			mean[f] += v
		}
	}
	n := float64(len(examples))
	for f := range mean {
		mean[f] /= n
	}
	for _, ex := range examples {
		for f, v := range ex.Features {
			d := v - mean[f]
			std[f] += d * d
		}
	}
	for f := range std {
		std[f] = math.Sqrt(std[f] / n)
		if std[f] < 1e-12 {
			std[f] = 1
		}
	}
	return &Scaler{Mean: mean, Std: std}
}

// transformClamp bounds standardized features so that even adversarial
// inputs (±Inf, ±1e308) keep the downstream logits finite.
const transformClamp = 1e12

// transformInto standardizes one feature vector into out (len(out) ==
// len(x)). Non-finite and extreme values are clamped to keep predictions
// finite.
func (s *Scaler) transformInto(out, x []float64) {
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
}

// MajorityClassifier is the degenerate fallback used when every training
// gap carries the same label (softmax needs ≥2 classes): it always predicts
// that label with probability 1.
type MajorityClassifier struct {
	Class int
	Total int
}

// Predict returns a one-hot probability array of the given width.
func (m *MajorityClassifier) Predict(width int) ([]float64, int) {
	probs := make([]float64, width)
	if m.Class >= 0 && m.Class < width {
		probs[m.Class] = 1
	}
	return probs, m.Class
}
