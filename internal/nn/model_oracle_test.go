package nn_test

import (
	"math"
	"testing"

	"lossyts/internal/forecast"
	"lossyts/internal/nn"
)

// trainAndPredict fits a fresh model of the named kind on a synthetic
// series and returns its forecasts. The config keeps the validation set
// empty (the val slice is too short for a window and MaxTrainWindows is
// below the holdout threshold), so no early-stopping comparison can branch
// differently between kernel modes — the two runs execute the exact same
// sequence of optimizer steps and the only differential axis is the kernel
// implementation.
func trainAndPredict(t *testing.T, modelName string, reference bool) [][]float64 {
	t.Helper()
	nn.UseReferenceKernels(reference)
	defer nn.UseReferenceKernels(false)

	cfg := forecast.DefaultConfig()
	cfg.Seed = 7
	cfg.InputLen = 16
	cfg.Horizon = 4
	cfg.HiddenSize = 8
	cfg.Epochs = 2
	cfg.BatchSize = 8
	cfg.MaxTrainWindows = 8
	cfg.Patience = 0

	series := make([]float64, 200)
	for i := range series {
		series[i] = math.Sin(float64(i)/6) + 0.3*math.Cos(float64(i)/17)
	}
	model, err := forecast.New(modelName, cfg)
	if err != nil {
		t.Fatalf("%s: %v", modelName, err)
	}
	if err := model.Fit(series, series[:4]); err != nil {
		t.Fatalf("%s fit: %v", modelName, err)
	}
	inputs := [][]float64{series[0:16], series[50:66], series[100:116]}
	preds, err := model.Predict(inputs)
	if err != nil {
		t.Fatalf("%s predict: %v", modelName, err)
	}
	return preds
}

// TestFusedKernelsMatchReference trains a GRU, a Transformer, a DLinear
// and an Informer (whose ProbSparse attention is one fused node on the
// fast path and the original op chain on the reference path) with the fast
// kernels and with the reference kernels and requires the final forecasts
// to agree within 1e-9 — the acceptance bound for the backward kernels'
// regrouped floating-point additions, compounded over every optimizer step
// of training.
func TestFusedKernelsMatchReference(t *testing.T) {
	for _, modelName := range []string{"GRU", "Transformer", "DLinear", "Informer"} {
		fast := trainAndPredict(t, modelName, false)
		ref := trainAndPredict(t, modelName, true)
		for i := range ref {
			for j := range ref[i] {
				if d := math.Abs(fast[i][j] - ref[i][j]); d > 1e-9 {
					t.Errorf("%s: forecast[%d][%d] fast %v, reference %v (|diff| %v > 1e-9)",
						modelName, i, j, fast[i][j], ref[i][j], d)
				}
			}
		}
	}
}

// benchmarkStep times one full optimizer step (forward, backward, clip,
// Adam, arena reset) of the named deep model at the default configuration,
// under the requested kernel mode.
func benchmarkStep(b *testing.B, modelName string, reference bool) {
	nn.UseReferenceKernels(reference)
	defer nn.UseReferenceKernels(false)
	step, err := forecast.OneTrainingStep(modelName, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	step() // warm the arena so steady-state allocation is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkGRUStep(b *testing.B)          { benchmarkStep(b, "GRU", false) }
func BenchmarkGRUStepReference(b *testing.B) { benchmarkStep(b, "GRU", true) }

func BenchmarkTransformerStep(b *testing.B)          { benchmarkStep(b, "Transformer", false) }
func BenchmarkTransformerStepReference(b *testing.B) { benchmarkStep(b, "Transformer", true) }
