// Command tsforecast trains one of the paper's forecasting models on a
// synthetic dataset (optionally lossy-compressed first) and reports the
// evaluation metrics, demonstrating Algorithm 1 end to end:
//
//	tsforecast -dataset ETTm1 -model DLinear
//	tsforecast -dataset ETTm1 -model Arima -method PMC -eps 0.1
//
// With -store the run goes through the evaluation harness backed by a
// cell-addressed result store: the first invocation trains and checkpoints
// the cell, repeating it (or running a grid that contains it) reuses the
// stored result:
//
//	tsforecast -dataset ETTm1 -model Arima -method PMC -eps 0.1 -store results.cells
package main

import (
	"flag"
	"fmt"
	"os"

	"lossyts/internal/cli"
	"lossyts/internal/compress"
	"lossyts/internal/core"
	"lossyts/internal/datasets"
	"lossyts/internal/forecast"
	"lossyts/internal/stats"
	"lossyts/internal/timeseries"
)

func main() {
	var (
		dataset = flag.String("dataset", "ETTm1", "dataset: ETTm1, ETTm2, Solar, Weather, ElecDem, Wind")
		model   = flag.String("model", "DLinear", "forecasting model")
		eps     = flag.Float64("eps", 0.1, "error bound when -method is set")
		scale   = flag.Float64("scale", 0.05, "dataset length scale")
		seed    = flag.Int64("seed", 1, "random seed")
		common  = cli.Bind(flag.CommandLine)
	)
	common.BindStore(flag.CommandLine)
	var method string
	flag.Func("method", "optional lossy method for the test input: "+cli.MethodList(compress.LossyMethods()),
		func(s string) error {
			m, err := cli.ParseMethod(s)
			method = string(m)
			return err
		})
	flag.Parse()
	// For a single training run the worker bound acts on the runtime itself.
	common.ApplyGOMAXPROCS()
	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", err)
		os.Exit(1)
	}
	var runErr error
	if common.Store != "" {
		// With a result store the run goes through the evaluation harness
		// as a one-cell grid, so the cell is checkpointed and a repeat of
		// the same invocation costs one store read instead of a training.
		runErr = runStored(*dataset, *model, method, *eps, *scale, *seed, common)
	} else {
		runErr = run(*dataset, *model, method, *eps, *scale, *seed)
	}
	// Profiles are flushed before any exit path: os.Exit skips defers.
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tsforecast:", runErr)
		os.Exit(1)
	}
}

// runStored evaluates the (dataset, model, method, eps) combination as a
// one-cell grid through the harness, backed by the result store: the first
// invocation trains and checkpoints, a repeat reads the stored cell back.
func runStored(dataset, modelName, method string, eps, scale float64, seed int64, common *cli.Common) error {
	if method == "" {
		return fmt.Errorf("-store needs -method (the store addresses cells by compression method and error bound)")
	}
	opts := core.DefaultOptions()
	opts.Scale = scale
	opts.Seed = seed
	opts.Datasets = []string{dataset}
	opts.Models = []string{modelName}
	opts.Methods = []compress.Method{compress.Method(method)}
	opts.ErrorBounds = []float64{eps}
	opts.Parallelism = common.Parallelism
	opts.Store = common.Store
	g, err := core.RunGrid(opts)
	if err != nil {
		return err
	}
	ds := g.Datasets[dataset]
	cell := ds.Cell(compress.Method(method), eps)
	if cell == nil {
		return fmt.Errorf("grid has no cell for %s eps=%g", method, eps)
	}
	fmt.Printf("test input compressed with %s eps=%g: CR %.2fx, %d segments\n",
		method, eps, cell.CR, cell.Segments)
	m := cell.ModelMetrics[modelName]
	fmt.Printf("R            %.4f\n", m.R)
	fmt.Printf("RSE          %.4f\n", m.RSE)
	fmt.Printf("RMSE         %.4f\n", m.RMSE)
	fmt.Printf("NRMSE        %.4f\n", m.NRMSE)
	if tfe, ok := cell.TFE[modelName]; ok {
		fmt.Printf("TFE          %.4f\n", tfe)
	}
	fmt.Fprintln(os.Stderr, g.Provenance.String())
	return nil
}

func run(dataset, modelName, method string, eps, scale float64, seed int64) error {
	ds, err := datasets.Load(dataset, scale, seed)
	if err != nil {
		return err
	}
	train, val, test, err := ds.Target().Split(0.7, 0.1, 0.2)
	if err != nil {
		return err
	}
	cfg := forecast.DefaultConfig()
	cfg.SeasonalPeriod = ds.SeasonalPeriod
	cfg.Seed = seed

	var scaler timeseries.StandardScaler
	if err := scaler.Fit(train.Values); err != nil {
		return err
	}
	model, err := forecast.New(modelName, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("training %s on %s (%d train points)...\n", modelName, dataset, train.Len())
	if err := model.Fit(scaler.Transform(train.Values), scaler.Transform(val.Values)); err != nil {
		return err
	}

	inputValues := test.Values
	if method != "" {
		comp, err := compress.New(compress.Method(method))
		if err != nil {
			return err
		}
		c, err := comp.Compress(test, eps)
		if err != nil {
			return err
		}
		dec, err := c.Decompress()
		if err != nil {
			return err
		}
		cr, err := compress.Ratio(test, c)
		if err != nil {
			return err
		}
		fmt.Printf("test input compressed with %s eps=%g: CR %.2fx, %d segments\n",
			method, eps, cr, c.Segments)
		inputValues = dec.Values
	}
	scTest := scaler.Transform(test.Values)
	ws, err := timeseries.MakePairedWindows(scaler.Transform(inputValues), scTest,
		cfg.InputLen, cfg.Horizon, cfg.Horizon)
	if err != nil {
		return err
	}
	preds, err := model.Predict(ws.Inputs())
	if err != nil {
		return err
	}
	var x, y []float64
	for i, p := range preds {
		y = append(y, p...)
		x = append(x, ws.Windows[i].Target...)
	}
	m, err := stats.Evaluate(x, y)
	if err != nil {
		return err
	}
	fmt.Printf("windows      %d (input %d, horizon %d)\n", ws.Len(), cfg.InputLen, cfg.Horizon)
	fmt.Printf("R            %.4f\n", m.R)
	fmt.Printf("RSE          %.4f\n", m.RSE)
	fmt.Printf("RMSE         %.4f\n", m.RMSE)
	fmt.Printf("NRMSE        %.4f\n", m.NRMSE)
	return nil
}
