package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"lossyts/internal/anomaly"
	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/features"
	"lossyts/internal/forecast"
	"lossyts/internal/timeseries"
)

// sessionWorkload runs one continuous monitoring session (core.Session) on
// ElecDem: PMC at ε=0.05, DLinear updated online, injected spikes and a
// level shift, and a checkpoint per tick into a fresh cell store. It is the
// only workload that runs the features and anomaly monitors, and it uses the
// codec and the store per small chunk where the grids use them in bulk.
type sessionWorkload struct {
	opts     core.SessionOptions
	sessions int
}

const (
	sessionMinReps   = 5
	sessionThreshold = 9 // cmd/tsmonitor's default anomaly cut-off
	// The session's injection magnitudes in warmup σ (its defaults).
	sessionSpikeMag = 8
	sessionDriftMag = 6
)

func (w *sessionWorkload) setup(e *env) error {
	w.opts = core.SessionOptions{
		Dataset:          "ElecDem",
		Scale:            0.05,
		Seed:             e.seed,
		Method:           compress.MethodPMC,
		Epsilon:          0.05,
		Model:            "DLinear",
		Forecast:         forecast.Config{Epochs: 3},
		ChunkSize:        timeseries.DefaultChunkSize,
		Spikes:           8,
		DriftAt:          0.7,
		AnomalyThreshold: sessionThreshold,
	}
	// Generating the stream once builds the generator's calibration, which
	// the session's own stream reuses.
	ts, err := datasets.StreamTarget(w.opts.Dataset, w.opts.Scale, w.opts.Seed, w.opts.ChunkSize)
	if err != nil {
		return err
	}
	for {
		if _, ok := ts.Next(); !ok {
			break
		}
	}
	if err := ts.Err(); err != nil {
		return err
	}
	// A short session warms every layer the measured sessions use.
	warm := w.opts
	warm.Scale = 0.01
	_, _, store, err := w.runSession(e, warm, true)
	os.Remove(store)
	return err
}

func (w *sessionWorkload) close() {}

// runSession runs one session from a fresh store (none when store is
// false) and returns its report and wall clock (NewSession included).
func (w *sessionWorkload) runSession(e *env, opts core.SessionOptions, store bool) (*core.SessionReport, time.Duration, string, error) {
	opts.Store = ""
	if store {
		w.sessions++
		opts.Store = filepath.Join(e.dir, fmt.Sprintf("session-%d.cells", w.sessions))
		if err := os.RemoveAll(opts.Store); err != nil {
			return nil, 0, "", err
		}
	}
	start := time.Now()
	s, err := core.NewSession(opts)
	if err != nil {
		return nil, 0, "", err
	}
	rep, err := s.Run(context.Background())
	return rep, time.Since(start), opts.Store, err
}

func (w *sessionWorkload) measure(e *env, r *run) error {
	var walls, peaks []float64
	var rep *core.SessionReport
	start := time.Now()
	for i := 0; i < sessionMinReps || time.Since(start).Seconds() < e.seconds; i++ {
		var store string
		wall, peak, err := timedOp(func() (d time.Duration, err error) {
			rep, d, store, err = w.runSession(e, w.opts, true)
			return d, err
		})
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		os.Remove(store)
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, peak)
		w.checkReport(r, rep, fmt.Sprintf("session %d", i))
	}
	w.checkChannel(r, rep, nil)
	wall := median(walls)
	pps := float64(rep.Points) / wall
	r.e2e["latency_p50_ms"] = wall * 1000
	r.e2e["latency_p99_ms"] = percentile(walls, 99) * 1000
	r.e2e["throughput_per_s"] = pps
	r.e2e["peak_rss_mb"] = median(peaks)
	r.name("session_points_per_s", pps, "points/s")
	r.name("session_anomaly_f1", rep.F1, "1")
	r.name("session_forecast_nrmse", rep.ForecastNRMSE, "1")
	r.extra["samples"] = map[string]any{"sessions": len(walls), "session_wall_s": walls, "peak_rss_mb": peaks}
	return nil
}

// checkReport checks a session report's scores and folds it into the run's
// digest.
func (w *sessionWorkload) checkReport(r *run, rep *core.SessionReport, what string) {
	if bad := firstBad(rep.CompressionRatio, rep.TE, rep.ForecastNRMSE, rep.F1); bad != "" || rep.ForecastPoints == 0 {
		r.fail("%s: report scores %s with %d scored forecast points", what, bad, rep.ForecastPoints)
		return
	}
	b, err := json.Marshal(rep)
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	d := newDigester()
	d.bytes(b)
	r.agree(what, d.sum())
	r.ok()
}

// injectedChunks regenerates the session's stream from outside: the
// dataset's chunks with the session's ground truth (spikes and the level
// shift, scaled by the σ of the warmup prefix) added as the session adds it.
func (w *sessionWorkload) injectedChunks(rep *core.SessionReport) ([]timeseries.Chunk, error) {
	o := w.opts
	ts, err := datasets.StreamTarget(o.Dataset, o.Scale, o.Seed, o.ChunkSize)
	if err != nil {
		return nil, err
	}
	n := ts.Len()
	warmup := int64(rep.Warmup)
	spikes, deltas := anomaly.SpikePlan(n, o.Spikes, 1, o.Seed+1)
	drift := int64(o.DriftAt * float64(n))
	var (
		buf      []float64
		sigma    float64
		sigmaSet bool
		total    int64
		out      []timeseries.Chunk
	)
	freeze := func() {
		var sc timeseries.StandardScaler
		_ = sc.Fit(buf) // an empty prefix leaves σ unset, as in the session
		sigma, sigmaSet, buf = sc.Std, sc.Fitted(), nil
	}
	for {
		c, ok := ts.Next()
		if !ok {
			break
		}
		raw := append([]float64(nil), c.Values...)
		for i := range raw {
			g := total + int64(i)
			if !sigmaSet && g < warmup {
				buf = append(buf, raw[i])
			}
			if !sigmaSet && g == warmup {
				freeze()
			}
			if sigmaSet {
				if g >= drift {
					raw[i] += sessionDriftMag * sigma
				}
				for k, p := range spikes {
					if int64(p) == g && int64(p) >= warmup {
						raw[i] += deltas[k] * sessionSpikeMag * sigma
					}
				}
			}
		}
		if !sigmaSet && total+int64(len(raw)) >= warmup && int64(len(buf)) >= warmup {
			freeze()
		}
		out = append(out, timeseries.Chunk{Start: c.Start, Interval: c.Interval, Values: raw})
		total += int64(len(raw))
	}
	return out, ts.Err()
}

// checkChannel pushes the regenerated stream through the session's codec
// chunk by chunk, runs the bound oracle on every chunk, and checks that the
// channel reproduces the report's compression ratio and TE. With a tracer
// it also times each layer's calls and runs the session's monitors over
// the reconstructed chunks, which must detect the report's anomalies.
func (w *sessionWorkload) checkChannel(r *run, rep *core.SessionReport, tr *tracer) {
	o := w.opts
	var chunks []timeseries.Chunk
	gen := func() (err error) {
		chunks, err = w.injectedChunks(rep)
		return err
	}
	var err error
	if tr != nil {
		_, err = tr.timed("datasets.StreamTarget", "channel", 0, gen)
	} else {
		err = gen()
	}
	if err != nil {
		r.fail("regenerating the session stream: %v", err)
		return
	}
	timed := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		_, err := tr.timed(name, "channel", 0, f)
		return err
	}
	comp, err := compress.New(o.Method)
	if err != nil {
		r.fail("%v", err)
		return
	}
	drift, err := features.NewDriftMonitor(rep.Period, 0, o.DriftEvery)
	if err != nil {
		r.fail("%v", err)
		return
	}
	shift := features.NewShiftMonitor(rep.Period, o.ShiftK)
	anom, err := anomaly.NewStreamDetector(anomaly.Detector{Period: rep.Period, Threshold: o.AnomalyThreshold}, 0)
	if err != nil {
		r.fail("%v", err)
		return
	}
	var (
		rawBytes, compBytes int64
		sqErr               float64
		points              int64
		lo, hi              = math.Inf(1), math.Inf(-1)
		detected            []int64
		checks              int
	)
	for i, c := range chunks {
		what := fmt.Sprintf("session chunk %d", i)
		series := timeseries.New(o.Dataset, c.Start, c.Interval, c.Values)
		var cc *compress.Compressed
		var dec *timeseries.Series
		var gz int
		err := timed("compress.encode."+string(o.Method), func() (err error) {
			cc, err = comp.Compress(series, o.Epsilon)
			return err
		})
		if err == nil {
			err = timed("compress.decode."+string(o.Method), func() (err error) {
				dec, err = cc.Decompress()
				return err
			})
		}
		if err == nil {
			err = timed("compress.ratio", func() (err error) {
				gz, err = compress.RawGzipSize(series)
				return err
			})
		}
		if err == nil {
			err = checkBound(c.Values, dec.Values, o.Epsilon)
		}
		if err != nil {
			r.fail("%s: %v", what, err)
			return
		}
		r.ok()
		rawBytes += int64(gz)
		compBytes += int64(cc.Size())
		for j, v := range c.Values {
			d := v - dec.Values[j]
			sqErr += d * d
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		points += int64(len(c.Values))
		if tr == nil {
			continue
		}
		r.layers["compress.payload_bytes"] += float64(cc.Size())
		r.layers["compress.points"] += float64(len(c.Values))
		err = timed("features.ShiftMonitor.Push", func() error {
			for _, v := range dec.Values {
				shift.Push(v)
			}
			return nil
		})
		if err == nil {
			err = timed("features.DriftMonitor.Push", func() error {
				cks, err := drift.Push(c.Values, dec.Values)
				checks += len(cks)
				return err
			})
		}
		if err == nil {
			err = timed("anomaly.StreamDetector.Push", func() error {
				idx, err := anom.Push(dec.Values)
				detected = append(detected, idx...)
				return err
			})
		}
		if err != nil {
			r.fail("%s: monitors: %v", what, err)
			return
		}
	}
	cr := float64(rawBytes) / float64(compBytes)
	te := math.Sqrt(sqErr/float64(points)) / (hi - lo)
	if points != rep.Points || cr != rep.CompressionRatio || math.Abs(te-rep.TE) > 1e-12*rep.TE {
		r.fail("the regenerated channel (%d points, ratio %v, TE %v) does not reproduce the session's (%d, %v, %v)",
			points, cr, te, rep.Points, rep.CompressionRatio, rep.TE)
	} else {
		r.ok()
	}
	if tr == nil {
		return
	}
	err = timed("anomaly.StreamDetector.Push", func() error {
		idx, err := anom.Finish()
		detected = append(detected, idx...)
		return err
	})
	r.layers["features.drift_checks"] = float64(checks)
	r.layers["anomaly.detections"] = float64(len(detected))
	if err != nil || fmt.Sprint(detected) != fmt.Sprint(rep.Detected) {
		r.fail("the monitors over the regenerated channel detected %v (%v), the session %v", detected, err, rep.Detected)
		return
	}
	r.ok()
}

// traced runs the session untraced, then traced with and without the model
// and the store, and times the monitors and the codec over the session's
// own chunk stream.
func (w *sessionWorkload) traced(e *env, r *run) error {
	tr := e.tr
	_, plain, store, err := w.runSession(e, w.opts, true)
	if err != nil {
		return err
	}
	os.Remove(store)

	variant := func(name string, opts core.SessionOptions, withStore bool) (*core.SessionReport, time.Duration, error) {
		start := time.Now()
		rep, wall, store, err := w.runSession(e, opts, withStore)
		tr.record(name, name, 0, start, start.Add(wall))
		if err == nil && store != "" {
			if fi, serr := os.Stat(store); serr == nil {
				r.layers["cellstore.journal_bytes"] = float64(fi.Size())
			}
			os.Remove(store)
		}
		return rep, wall, err
	}
	rep, full, err := variant("core.Session.Run", w.opts, true)
	if err != nil {
		return err
	}
	w.checkReport(r, rep, "traced session")
	noModel := w.opts
	noModel.Model = ""
	_, bare, err := variant("core.Session.Run.nomodel", noModel, true)
	if err != nil {
		return err
	}
	_, unstored, err := variant("core.Session.Run.nostore", w.opts, false)
	if err != nil {
		return err
	}
	r.layers["forecast.session_update_s"] = (full - bare).Seconds()
	r.layers["core.session_checkpoint_s"] = (full - unstored).Seconds()
	r.extra["trace_overhead"] = map[string]float64{
		"untraced_session_wall_s": plain.Seconds(),
		"traced_session_wall_s":   full.Seconds(),
		"overhead_share":          (full.Seconds() - plain.Seconds()) / plain.Seconds(),
	}

	w.checkChannel(r, rep, tr)
	for name, d := range tr.selfTimes() {
		if metric := layerOf(name); metric != "" {
			r.layers[metric] += d.Seconds()
		}
	}
	r.layers["datasets.points"] = float64(rep.Points)
	return nil
}
