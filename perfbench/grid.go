package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

// gridWorkload runs the paper's evaluation grid (Algorithm 1 over datasets ×
// codecs × bounds × models) through core.RunGridContext.
//
// grid-neural is the paper's table-2 grid on ETTm1: all seven models, the
// paper's codecs PMC/SWING/SZ at the 13 bounds. Training is nearly all of
// its wall clock, so nn and forecast changes show here.
//
// grid-codec is the compression study: all six datasets × the five lossy
// codecs × 13 bounds with the Gorilla baseline, one cheap model (Arima), a
// ten times larger scale, and a fresh cell store per grid so every cell is
// checkpointed. Reconstruction and scoring carry its wall clock.
//
// Both run at Parallelism 1 and clear the in-process memo before each grid.
type gridWorkload struct {
	neural bool
	opts   core.Options
	data   map[string]*datasets.Dataset
	grids  int
}

// gridMinReps is the least number of grids an untraced run measures.
const gridMinReps = 3

var paperDatasets = []string{"ETTm1", "ETTm2", "Solar", "Weather", "ElecDem", "Wind"}

func (w *gridWorkload) options(seed int64) core.Options {
	o := core.DefaultOptions()
	o.Seed = seed
	o.Parallelism = 1
	if w.neural {
		// The training budget is cut (2 epochs, 64 train windows, 12
		// evaluation windows) so a grid takes seconds; the grid keeps every
		// model, codec and bound. Two epochs stay under the early-stopping
		// patience, so the work does not depend on the seed's data.
		o.Scale = 0.02
		o.Datasets = []string{"ETTm1"}
		o.Methods = compress.Methods
		o.MaxEvalWindows = 12
		o.Forecast.Epochs = 2
		o.Forecast.MaxTrainWindows = 64
		return o
	}
	o.Scale = 0.05
	o.Datasets = paperDatasets
	o.Models = []string{"Arima"}
	o.Methods = compress.LossyMethods()
	return o
}

// setup generates the grid's datasets (the ingest stage's own calls) and
// warms the layer the workload leans on.
func (w *gridWorkload) setup(e *env) error {
	w.opts = w.options(e.seed)
	w.data = map[string]*datasets.Dataset{}
	for _, name := range w.opts.Datasets {
		ds, err := datasets.Load(name, w.opts.Scale, w.opts.Seed)
		if err != nil {
			return err
		}
		w.data[name] = ds
	}
	if w.neural {
		for _, m := range deepModels {
			step, err := forecast.OneTrainingStep(m, w.opts.Forecast.BatchSize, e.seed)
			if err != nil {
				return err
			}
			step()
		}
		return nil
	}
	// One bound of the grid runs every stage on every dataset and codec.
	warm := w.opts
	warm.ErrorBounds = []float64{0.05}
	core.ResetGridCache()
	_, err := core.RunGridContext(context.Background(), warm)
	return err
}

func (w *gridWorkload) close() {}

// runGrid computes one fresh grid: the memo is cleared and grid-codec gets
// a new, empty store. It returns the grid and the call's wall clock.
func (w *gridWorkload) runGrid(e *env, opts core.Options) (*core.GridResult, time.Duration, error) {
	if !w.neural {
		w.grids++
		opts.Store = filepath.Join(e.dir, fmt.Sprintf("grid-%d.cells", w.grids))
		if err := os.RemoveAll(opts.Store); err != nil {
			return nil, 0, err
		}
	}
	core.ResetGridCache()
	runtime.GC()
	start := time.Now()
	g, err := core.RunGridContext(context.Background(), opts)
	return g, time.Since(start), err
}

// dropStore deletes a grid-codec store once its size has been read.
func (w *gridWorkload) dropStore(g *core.GridResult) {
	if g != nil && g.Opts.Store != "" {
		os.Remove(g.Opts.Store)
	}
}

func (w *gridWorkload) measure(e *env, r *run) error {
	var walls, peaks []float64
	var evals int64
	var q gridQuality
	start := time.Now()
	for rep := 0; rep < gridMinReps || time.Since(start).Seconds() < e.seconds; rep++ {
		var g *core.GridResult
		wall, peak, err := timedOp(func() (d time.Duration, err error) {
			g, d, err = w.runGrid(e, w.opts)
			return d, err
		})
		if err != nil {
			r.fail("grid %d: %v", rep, err)
			break
		}
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, peak)
		evals = g.Timings.CellEvals
		var sum string
		q, sum = w.checkGrid(r, g, fmt.Sprintf("grid %d", rep))
		r.agree(fmt.Sprintf("grid %d", rep), sum)
		w.dropStore(g)
	}
	if len(walls) == 0 {
		return fmt.Errorf("no grid completed: %v", r.failures)
	}
	wall := median(walls)
	r.e2e["latency_p50_ms"] = wall * 1000
	r.e2e["latency_p99_ms"] = percentile(walls, 99) * 1000
	r.e2e["throughput_per_s"] = float64(evals) / wall
	r.e2e["peak_rss_mb"] = median(peaks)
	r.name("grid_wall_s", wall, "s")
	q.report(r, w.neural)
	r.extra["samples"] = map[string]any{"grids": len(walls), "grid_wall_s": walls, "peak_rss_mb": peaks}
	return nil
}

// gridQuality holds the grid's quality guards: means over the grid's
// outputs that move only when the numerics do.
type gridQuality struct {
	nrmse, tfe, cr, te float64
	cells              int
}

func (q gridQuality) report(r *run, neural bool) {
	if neural {
		r.name("grid_nrmse_mean", q.nrmse, "1")
		r.name("grid_tfe_mean", q.tfe, "1")
	} else {
		r.name("grid_cr_mean", q.cr, "1")
		r.name("grid_te_mean", q.te, "1")
	}
}

// checkGrid runs the bound oracle on every cell, checks that every score is
// a number, and returns the quality guards and the digest of the grid.
func (w *gridWorkload) checkGrid(r *run, g *core.GridResult, what string) (gridQuality, string) {
	d := newDigester()
	var q gridQuality
	var nrmse, tfe []float64
	names := make([]string, 0, len(g.Datasets))
	for name := range g.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dr := g.Datasets[name]
		d.str(name)
		d.float(dr.GorillaCR)
		d.floats(dr.RawTest)
		for _, m := range sortedKeys(dr.Baselines) {
			b := dr.Baselines[m]
			d.str(m)
			d.floats([]float64{b.R, b.RSE, b.RMSE, b.NRMSE})
			nrmse = append(nrmse, b.NRMSE)
		}
		for _, c := range dr.Cells {
			cell := fmt.Sprintf("%s: %s %s ε=%v", what, name, c.Method, c.Epsilon)
			d.str(string(c.Method))
			d.float(c.Epsilon)
			d.float(c.CR)
			d.int(int64(c.Segments))
			d.floats([]float64{c.TE.R, c.TE.RSE, c.TE.RMSE, c.TE.NRMSE})
			d.floats(c.Decompressed)
			for _, m := range sortedKeys(c.ModelMetrics) {
				mm := c.ModelMetrics[m]
				d.str(m)
				d.floats([]float64{mm.R, mm.RSE, mm.RMSE, mm.NRMSE, c.TFE[m]})
				tfe = append(tfe, c.TFE[m])
			}
			if err := checkBound(dr.RawTest, c.Decompressed, c.Epsilon); err != nil {
				r.fail("%s: %v", cell, err)
				continue
			}
			if bad := firstBad(c.CR, c.TE.NRMSE); bad != "" || len(c.ModelMetrics) != len(dr.Baselines) {
				r.fail("%s: scores %s, %d of %d models", cell, bad, len(c.ModelMetrics), len(dr.Baselines))
				continue
			}
			r.ok()
			q.cr += c.CR
			q.te += c.TE.NRMSE
			q.cells++
		}
	}
	if q.cells > 0 {
		q.cr /= float64(q.cells)
		q.te /= float64(q.cells)
	}
	q.nrmse = mean(nrmse)
	q.tfe = mean(tfe)
	if bad := firstBad(q.nrmse, q.tfe); bad != "" {
		r.fail("%s: model scores %s", what, bad)
	}
	return q, d.sum()
}

// traced runs the grid once untraced and once traced, then times the
// layers under it from outside: dataset generation, every cell's codec
// calls, the window stage's scaler and windowing, the store's read path,
// and for grid-neural each model's fit and predict and one nn training
// step per deep model.
func (w *gridWorkload) traced(e *env, r *run) error {
	tr := e.tr
	for _, name := range w.opts.Datasets {
		var ds *datasets.Dataset
		_, err := tr.timed("datasets.Load", "inputs", 0, func() (err error) {
			ds, err = datasets.Load(name, w.opts.Scale, w.opts.Seed)
			return err
		})
		if err != nil {
			return err
		}
		r.layers["datasets.points"] += float64(ds.Target().Len())
	}

	gp, plain, err := w.runGrid(e, w.opts)
	if err != nil {
		return err
	}
	w.dropStore(gp)
	g, wall, err := w.tracedGrid(e, w.opts, "grid", "core.RunGridContext", func(s string) string { return "core.stage." + s })
	if err != nil {
		return err
	}
	_, sum := w.checkGrid(r, g, "traced grid")
	r.agree("traced grid", sum)
	r.extra["trace_overhead"] = map[string]float64{
		"untraced_grid_wall_s": plain.Seconds(),
		"traced_grid_wall_s":   wall.Seconds(),
		"overhead_share":       (wall.Seconds() - plain.Seconds()) / plain.Seconds(),
	}
	r.layers["core.units"] = float64(g.Timings.Units)
	r.layers["core.cell_evals"] = float64(g.Timings.CellEvals)
	if !w.neural {
		if err := w.traceStore(e, r, g); err != nil {
			return err
		}
	}
	w.dropStore(g)
	w.probeCells(e, r, g)

	if w.neural {
		for _, m := range allModels {
			o := w.opts
			o.Models = []string{m}
			gm, _, err := w.tracedGrid(e, o, "model="+m, "core.RunGridContext.model", func(s string) string {
				switch s {
				case core.StageTrain:
					return "forecast.fit." + m
				case core.StageForecast:
					return "forecast.predict." + m
				}
				return "model.stage." + s
			})
			if err != nil {
				return err
			}
			w.checkModelGrid(r, g, gm, m)
		}
		w.probeSteps(e, r)
	}

	self := tr.selfTimes()
	for name, d := range self {
		if metric := layerOf(name); metric != "" {
			r.layers[metric] += d.Seconds()
		}
	}
	if !w.neural {
		// grid-codec fits one model; its train and forecast stages are
		// that model's fit and predict.
		r.layers["forecast.fit_s.Arima"] = r.layers["core.stage_s.train"]
		r.layers["forecast.predict_s.Arima"] = r.layers["core.stage_s.forecast"]
	}
	w.reconcile(r, wall)
	return nil
}

// tracedGrid runs one grid inside a span named root and lays the grid's
// per-stage wall clocks (GridResult.Timings.Stages) under it as child
// spans, named by stageSpan. At Parallelism 1 the stages run one after the
// other, so the children tile the root and the root's self time is the
// wall clock no stage accounts for.
func (w *gridWorkload) tracedGrid(e *env, opts core.Options, run, root string, stageSpan func(string) string) (*core.GridResult, time.Duration, error) {
	g, wall, err := w.runGrid(e, opts)
	if err != nil {
		return nil, 0, err
	}
	end := time.Now()
	at := end.Add(-wall)
	id := e.tr.record(root, run, 0, at, end)
	for _, st := range g.Timings.Stages {
		e.tr.record(stageSpan(st.Name), run, id, at, at.Add(st.Total))
		at = at.Add(st.Total)
	}
	return g, wall, nil
}

// traceStore reads the size of the store the traced grid wrote and times
// the read path over it; the loaded grid must reproduce the computed one.
func (w *gridWorkload) traceStore(e *env, r *run, g *core.GridResult) error {
	fi, err := os.Stat(g.Opts.Store)
	if err != nil {
		return err
	}
	r.layers["cellstore.journal_bytes"] = float64(fi.Size())
	var loaded *core.GridResult
	_, err = e.tr.timed("cellstore.LoadGrid", "grid", 0, func() (err error) {
		loaded, err = core.LoadGrid(g.Opts.Store)
		return err
	})
	if err != nil {
		r.fail("loading the grid store: %v", err)
		return nil
	}
	_, sum := w.checkGrid(r, loaded, "grid loaded from the store")
	r.agree("grid loaded from the store", sum)
	return nil
}

// probeCells repeats each cell's codec work from outside the grid on the
// same test subset — compress, decompress, ratio, and the window stage's
// scaling and windowing — and checks it reproduces the grid's cell.
func (w *gridWorkload) probeCells(e *env, r *run, g *core.GridResult) {
	tr := e.tr
	cfg := w.opts.Forecast
	for _, name := range w.opts.Datasets {
		dr := g.Datasets[name]
		train, _, test, err := w.data[name].Target().Split(0.7, 0.1, 0.2)
		if err != nil {
			r.fail("%s: split: %v", name, err)
			continue
		}
		if !sameBits(test.Values, dr.RawTest) {
			r.fail("%s: the probe's test subset differs from the grid's", name)
			continue
		}
		var sc timeseries.StandardScaler
		if err := sc.Fit(train.Values); err != nil {
			r.fail("%s: scaler: %v", name, err)
			continue
		}
		scTest := sc.Transform(test.Values)
		stride := cfg.Horizon
		if m := w.opts.MaxEvalWindows; m > 0 {
			if full := (test.Len() - cfg.InputLen - cfg.Horizon) / cfg.Horizon; full > m {
				stride = (test.Len() - cfg.InputLen - cfg.Horizon) / m
			}
		}

		probe := func(m compress.Method, eps float64, wantCR float64, want []float64) {
			what := fmt.Sprintf("probe %s %s ε=%v", name, m, eps)
			comp, err := compress.New(m)
			if err != nil {
				r.fail("%s: %v", what, err)
				return
			}
			var c *compress.Compressed
			var dec *timeseries.Series
			var cr float64
			_, err = tr.timed("compress.encode."+string(m), name, 0, func() (err error) {
				c, err = comp.Compress(test, eps)
				return err
			})
			if err == nil {
				_, err = tr.timed("compress.decode."+string(m), name, 0, func() (err error) {
					dec, err = c.Decompress()
					return err
				})
			}
			if err == nil {
				_, err = tr.timed("compress.ratio", name, 0, func() (err error) {
					cr, err = compress.Ratio(test, c)
					return err
				})
			}
			if err != nil {
				r.fail("%s: %v", what, err)
				return
			}
			if err := checkBound(test.Values, dec.Values, eps); err != nil {
				r.fail("%s: %v", what, err)
				return
			}
			if cr != wantCR || (want != nil && !sameBits(dec.Values, want)) {
				r.fail("%s: ratio %v or reconstruction differs from the grid's (ratio %v)", what, cr, wantCR)
				return
			}
			r.ok()
			if m == compress.MethodGorilla {
				return
			}
			r.layers["compress.payload_bytes"] += float64(c.Size())
			r.layers["compress.points"] += float64(test.Len())
			_, err = tr.timed("timeseries.window", name, 0, func() error {
				_, err := timeseries.MakePairedWindows(sc.Transform(dec.Values), scTest, cfg.InputLen, cfg.Horizon, stride)
				return err
			})
			r.check(what+": windows", err)
		}
		probe(compress.MethodGorilla, 0, dr.GorillaCR, nil)
		for _, c := range dr.Cells {
			probe(c.Method, c.Epsilon, c.CR, c.Decompressed)
		}
	}
}

// checkModelGrid checks that a single-model grid reproduces that model's
// scores in the full grid: a model's results do not depend on which other
// models run.
func (w *gridWorkload) checkModelGrid(r *run, full, one *core.GridResult, model string) {
	for name, dr := range one.Datasets {
		fr := full.Datasets[name]
		same := dr.Baselines[model] == fr.Baselines[model] && len(dr.Cells) == len(fr.Cells)
		for i := 0; same && i < len(dr.Cells); i++ {
			same = dr.Cells[i].ModelMetrics[model] == fr.Cells[i].ModelMetrics[model]
		}
		if !same {
			r.fail("grid of %s alone differs from its scores in the full grid (%s)", model, name)
			continue
		}
		r.ok()
	}
}

// probeSteps times forecast.OneTrainingStep, one optimizer step of each deep
// model at the default configuration, and counts its heap allocations.
func (w *gridWorkload) probeSteps(e *env, r *run) {
	const steps = 20
	batch := forecast.DefaultConfig().BatchSize
	for _, m := range deepModels {
		step, err := forecast.OneTrainingStep(m, batch, e.seed)
		if err != nil {
			r.fail("training step %s: %v", m, err)
			continue
		}
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var times []float64
		for i := 0; i < steps; i++ {
			d, _ := e.tr.timed("nn.step."+m, "steps", 0, func() error { step(); return nil })
			times = append(times, ms(d))
		}
		runtime.ReadMemStats(&after)
		r.layers["nn.step_ms."+m] = median(times)
		r.layers["nn.allocs_per_step."+m] = float64(after.Mallocs-before.Mallocs) / steps
		r.ok()
	}
}

// layerOf maps a span name to the per-layer metric its self time feeds.
func layerOf(span string) string {
	switch span {
	case "datasets.Load", "datasets.StreamTarget":
		return "datasets.load_s"
	case "compress.ratio":
		return "compress.ratio_s"
	case "compress.stream_encode":
		return "compress.stream_encode_s"
	case "compress.stream_decode":
		return "compress.stream_decode_s"
	case "timeseries.window":
		return "timeseries.window_s"
	case "core.RunGridContext":
		return "core.unattributed_s"
	case "cellstore.LoadGrid":
		return "cellstore.load_s"
	case "features.DriftMonitor.Push":
		return "features.drift_push_s"
	case "features.ShiftMonitor.Push":
		return "features.shift_push_s"
	case "anomaly.StreamDetector.Push":
		return "anomaly.push_s"
	}
	for prefix, metric := range map[string]string{
		"compress.encode.":  "compress.encode_s.",
		"compress.decode.":  "compress.decode_s.",
		"core.stage.":       "core.stage_s.",
		"forecast.fit.":     "forecast.fit_s.",
		"forecast.predict.": "forecast.predict_s.",
	} {
		if len(span) > len(prefix) && span[:len(prefix)] == prefix {
			return metric + span[len(prefix):]
		}
	}
	return ""
}

// reconcile prints the ladder's rung-to-rung check: the grid's wall clock
// against the sum of its stages' self times plus the unattributed rest,
// and for grid-neural the train and forecast stages against the per-model
// fit and predict times of the single-model grids.
func (w *gridWorkload) reconcile(r *run, wall time.Duration) {
	var stages float64
	for _, s := range gridStages {
		stages += r.layers["core.stage_s."+s]
	}
	rec := map[string]float64{
		"grid_wall_s":      wall.Seconds(),
		"sum_stage_self_s": stages,
		"unattributed_s":   r.layers["core.unattributed_s"],
		"attributed_share": stages / wall.Seconds(),
	}
	if w.neural {
		var fit, pred float64
		for _, m := range allModels {
			fit += r.layers["forecast.fit_s."+m]
			pred += r.layers["forecast.predict_s."+m]
		}
		rec["train_stage_s"] = r.layers["core.stage_s.train"]
		rec["sum_model_fit_s"] = fit
		rec["forecast_stage_s"] = r.layers["core.stage_s.forecast"]
		rec["sum_model_predict_s"] = pred
	} else {
		var enc, dec float64
		for _, m := range w.opts.Methods {
			enc += r.layers["compress.encode_s."+string(m)]
			dec += r.layers["compress.decode_s."+string(m)]
		}
		rec["compress_stage_s"] = r.layers["core.stage_s.compress"]
		rec["sum_probe_encode_s"] = enc
		rec["reconstruct_stage_s"] = r.layers["core.stage_s.reconstruct"]
		rec["sum_probe_decode_and_ratio_s"] = dec + r.layers["compress.ratio_s"]
	}
	r.extra["reconcile"] = rec
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// firstBad names the first non-finite value among vs, or returns "".
func firstBad(vs ...float64) string {
	for _, v := range vs {
		if isBad(v) {
			return fmt.Sprint(v)
		}
	}
	return ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
