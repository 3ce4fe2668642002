package forecast

import (
	"math"
	"math/rand"
	"testing"

	"lossyts/internal/nn"
	"lossyts/internal/timeseries"
)

func TestProbSparseLazyQueriesGetUniformAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := newProbSparseAttention(rng, 8, 2, 0.5) // tiny factor: few active queries
	x := nn.Randn(rng, 1, 1, 12, 8)
	out := p.forward(x)
	if out.Shape[0] != 1 || out.Shape[1] != 12 || out.Shape[2] != 8 {
		t.Fatalf("shape = %v", out.Shape)
	}
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite attention output")
		}
	}
}

func TestProbSparseSelectsHighMeasureQueries(t *testing.T) {
	// With factor high enough to select all queries, the output must equal
	// full softmax attention (the uniform fallback never fires).
	rng := rand.New(rand.NewSource(72))
	p := newProbSparseAttention(rng, 4, 1, 100)
	x := nn.Randn(rng, 1, 1, 6, 4)
	sparse := p.forward(x)

	full := &nn.MultiHeadAttention{Heads: 1, DModel: 4, Wq: p.wq, Wk: p.wk, Wv: p.wv, Wo: p.wo}
	dense := full.Forward(x, x, x, nil)
	for i := range sparse.Data {
		if math.Abs(sparse.Data[i]-dense.Data[i]) > 1e-9 {
			t.Fatalf("all-active ProbSparse differs from dense attention at %d", i)
		}
	}
}

func TestProbSparseGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	p := newProbSparseAttention(rng, 4, 1, 5)
	x := nn.Randn(rng, 1, 1, 8, 4).Param()
	loss := nn.Mean(p.forward(x))
	loss.Backward()
	var norm float64
	for _, g := range x.Grad {
		norm += g * g
	}
	if norm == 0 {
		t.Fatal("no gradient reached the input through ProbSparse attention")
	}
	for _, g := range p.wv.W.Grad {
		norm += g * g
	}
	if norm == 0 {
		t.Fatal("no gradient reached the value projection")
	}
}

func TestTransformerOutputShape(t *testing.T) {
	cfg := testConfig(74)
	m := newTransformer(cfg)
	x := nn.Zeros(3, cfg.InputLen)
	out := m.forward(x, false)
	if out.Shape[0] != 3 || out.Shape[1] != cfg.Horizon {
		t.Fatalf("transformer output shape = %v", out.Shape)
	}
}

func TestInformerOutputShape(t *testing.T) {
	cfg := testConfig(75)
	m := newInformer(cfg)
	x := nn.Zeros(2, cfg.InputLen)
	out := m.forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != cfg.Horizon {
		t.Fatalf("informer output shape = %v", out.Shape)
	}
}

func TestInformerDistillingHalvesMemory(t *testing.T) {
	// The distilling stage must halve the encoder sequence length; verify
	// indirectly by checking forward works with odd input lengths.
	cfg := testConfig(76)
	cfg.InputLen = 49
	m := newInformer(cfg)
	out := m.forward(nn.Zeros(1, 49), false)
	if out.Shape[1] != cfg.Horizon {
		t.Fatalf("output shape = %v", out.Shape)
	}
}

func TestGRUForwardShape(t *testing.T) {
	cfg := testConfig(77)
	m := newGRU(cfg)
	out := m.forward(nn.Zeros(4, cfg.InputLen), false)
	if out.Shape[0] != 4 || out.Shape[1] != cfg.Horizon {
		t.Fatalf("gru output shape = %v", out.Shape)
	}
}

func TestNBeatsResidualStacking(t *testing.T) {
	cfg := testConfig(78)
	m := newNBeats(cfg)
	out := m.forward(nn.Zeros(2, cfg.InputLen), false)
	if out.Shape[0] != 2 || out.Shape[1] != cfg.Horizon {
		t.Fatalf("nbeats output shape = %v", out.Shape)
	}
	if len(m.blocks) != 4 {
		t.Fatalf("blocks = %d", len(m.blocks))
	}
}

func TestDLinearDecompositionPath(t *testing.T) {
	cfg := testConfig(79)
	m := newDLinear(cfg)
	// A constant input's seasonal component is zero; the forecast must be
	// driven purely by the trend path.
	x := nn.Full(3, 1, cfg.InputLen)
	out := m.forward(x, false)
	if out.Shape[1] != cfg.Horizon {
		t.Fatalf("dlinear output shape = %v", out.Shape)
	}
}

func TestModelParamCounts(t *testing.T) {
	cfg := testConfig(80)
	for _, name := range []string{"DLinear", "GRU", "NBeats", "Transformer", "Informer"} {
		m, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net, ok := m.(network)
		if !ok {
			t.Fatalf("%s does not implement network", name)
		}
		params := net.params()
		if len(params) == 0 {
			t.Fatalf("%s has no parameters", name)
		}
		total := 0
		for _, p := range params {
			if !p.RequiresGrad() {
				t.Fatalf("%s has a parameter without gradient", name)
			}
			total += len(p.Data)
		}
		if total < 100 {
			t.Fatalf("%s has only %d weights", name, total)
		}
	}
}

func TestArimaAICPicksParsimoniousModel(t *testing.T) {
	// On an AR(1) process the selected AR order should stay small.
	rng := rand.New(rand.NewSource(81))
	n := 3000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = 0.6*x[i-1] + rng.NormFloat64()
	}
	cfg := testConfig(82)
	m := newArima(cfg)
	if err := m.Fit(x, nil); err != nil {
		t.Fatal(err)
	}
	if m.p > 3 || m.q > 3 {
		t.Fatalf("selected ARMA(%d,%d)", m.p, m.q)
	}
	if m.p == 0 && m.q == 0 {
		t.Fatal("AIC selected the degenerate model on AR(1) data")
	}
}

func TestArimaDifferencingOnRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	n := 3000
	x := make([]float64, n)
	for i := 1; i < n; i++ {
		x[i] = x[i-1] + rng.NormFloat64()
	}
	cfg := testConfig(84)
	m := newArima(cfg)
	if err := m.Fit(x, nil); err != nil {
		t.Fatal(err)
	}
	if m.d != 1 {
		t.Fatalf("random walk should trigger differencing, got d=%d", m.d)
	}
}

func TestArimaPhaseAwareness(t *testing.T) {
	cfg := testConfig(85)
	train := sineData(1200, 91, 0.05)
	val := sineData(240, 92, 0.05)
	m := newArima(cfg)
	if err := m.Fit(train, val); err != nil {
		t.Fatal(err)
	}
	// Build windows whose true phase is known: test data continues the
	// training phase (sineData always starts at phase 0).
	test := sineData(480, 93, 0.05)
	ws, err := timeseries.MakeWindows(test, cfg.InputLen, cfg.Horizon, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Coarsely smoothed inputs distort phase estimation.
	smoothed := make([][]float64, ws.Len())
	for i, w := range ws.Windows {
		sm := append([]float64(nil), w.Input...)
		for s := 0; s < len(sm); s += 12 {
			end := s + 12
			if end > len(sm) {
				end = len(sm)
			}
			v := mean(sm[s:end])
			for j := s; j < end; j++ {
				sm[j] = v
			}
		}
		smoothed[i] = sm
	}
	rmse := func(preds [][]float64) float64 {
		var ss float64
		var n int
		for i, p := range preds {
			for j := range p {
				d := p[j] - ws.Windows[i].Target[j]
				ss += d * d
				n++
			}
		}
		return math.Sqrt(ss / float64(n))
	}
	estimated, err := m.Predict(smoothed)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWindowPhase(0, cfg.Horizon)
	known, err := m.Predict(smoothed)
	if err != nil {
		t.Fatal(err)
	}
	if rmse(known) > rmse(estimated)*1.1 {
		t.Errorf("known phase RMSE %.4f should not be clearly worse than estimated %.4f",
			rmse(known), rmse(estimated))
	}
	// And on clean inputs, known phase must be essentially optimal.
	clean, err := m.Predict(ws.Inputs())
	if err != nil {
		t.Fatal(err)
	}
	if rmse(clean) > 0.5 {
		t.Errorf("phase-aware clean RMSE = %.4f", rmse(clean))
	}
}

func TestEnsembleForwardsPhase(t *testing.T) {
	cfg := testConfig(86)
	e, err := NewEnsemble(cfg, "Arima", "GBoost")
	if err != nil {
		t.Fatal(err)
	}
	pa, ok := e.(PhaseAware)
	if !ok {
		t.Fatal("ensemble should be phase-aware")
	}
	pa.SetWindowPhase(3, 8)
	inner := e.(*ensemble).members[0].(*arima)
	if !inner.phaseKnown || inner.startPhase != 3 || inner.phaseStride != 8 {
		t.Fatal("phase not forwarded to Arima member")
	}
}

// TestPredictInferenceArenaMatchesGradientArena: every deep model's Predict,
// which runs in an inference arena, returns bit-identical forecasts to the
// same forward pass in a gradient arena, where the autodiff graph is built.
// The input length gives Informer's ProbSparse layers lazy queries on both
// encoder levels (T=48, u=20 and T=24, u=17).
func TestPredictInferenceArenaMatchesGradientArena(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.InputLen = 48
	cfg.Horizon = 6
	cfg.HiddenSize = 8
	cfg.Epochs = 1
	cfg.MaxTrainWindows = 16
	series := make([]float64, 240)
	for i := range series {
		series[i] = math.Sin(float64(i)/5) + 0.2*math.Cos(float64(i)/13)
	}
	var inputs [][]float64
	for s := 0; s+cfg.InputLen <= len(series); s += 23 {
		inputs = append(inputs, series[s:s+cfg.InputLen])
	}
	for _, name := range []string{"DLinear", "GRU", "Informer", "NBeats", "Transformer"} {
		m, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(series, series[:cfg.InputLen+cfg.Horizon+4]); err != nil {
			t.Fatalf("%s fit: %v", name, err)
		}
		got, err := m.Predict(inputs)
		if err != nil {
			t.Fatalf("%s predict: %v", name, err)
		}
		arena := nn.NewArena()
		x := nn.Zeros(len(inputs), cfg.InputLen).InArena(arena)
		for i, w := range inputs {
			copy(x.Data[i*cfg.InputLen:], w)
		}
		want := m.(network).forward(x, false)
		if !want.RequiresGrad() {
			t.Fatalf("%s: the gradient-arena forward built no graph", name)
		}
		for i := range got {
			for j, v := range got[i] {
				if w := want.Data[i*cfg.Horizon+j]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: forecast[%d][%d] inference arena %v, gradient arena %v (want bit-equal)", name, i, j, v, w)
				}
			}
		}
		arena.Release()
	}
}
