// Command tsmonitor is the online execution plane: it drives a continuous,
// drift-aware monitoring session over a chunked stream — ingest → inject →
// compress → reconstruct → monitor → update → score — instead of the batch
// one-shot the other commands run.
//
// Single-session mode streams one (dataset, method, bound) configuration,
// optionally updating a forecasting model incrementally as data arrives,
// and prints the session report: every shift/drift/anomaly alert with its
// detection index, plus compression ratio, transformation error,
// prequential forecast error, drift-detection delay, and anomaly F1
// against the injected ground truth.
//
//	tsmonitor -dataset ElecDem -scale 0.01 -method PMC -eps 0.05
//	tsmonitor -dataset ETTm1 -model DLinear -store session.cells
//
// With -store, the session checkpoints its complete state into a cell
// store every tick; a killed process restarted with the same flags resumes
// from the last complete tick and produces a report byte-identical to an
// uninterrupted run.
//
// Sweep mode (-sweep) runs one session per (method, bound) pair and merges
// the reports into BENCH_monitor.json — how drift-detection delay and
// anomaly F1 degrade as the error bound grows:
//
//	tsmonitor -sweep -methods PMC,SWING,SZ -bounds 0.01,0.05,0.1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"lossyts/internal/cli"
	"lossyts/internal/core"
)

func main() {
	var (
		mon    = cli.BindMonitor(flag.CommandLine)
		common = cli.Bind(flag.CommandLine)
	)
	flag.Parse()
	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsmonitor:", err)
		os.Exit(1)
	}
	runErr := run(mon, common)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "tsmonitor:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tsmonitor:", runErr)
		os.Exit(1)
	}
}

func run(mon *cli.Monitor, common *cli.Common) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if mon.Sweep {
		return runSweep(ctx, mon, common)
	}
	sess, err := core.NewSession(mon.SessionOptions())
	if err != nil {
		return err
	}
	rep, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	return writeReport(mon.Out, rep)
}

func runSweep(ctx context.Context, mon *cli.Monitor, common *cli.Common) error {
	methods, err := cli.ParseMethods(mon.Methods)
	if err != nil {
		return err
	}
	var bounds []float64
	for _, tok := range cli.SplitList(mon.Bounds) {
		var v float64
		if _, err := fmt.Sscanf(tok, "%g", &v); err != nil || v < 0 {
			return fmt.Errorf("bad bound %q", tok)
		}
		bounds = append(bounds, v)
	}
	bench, err := core.MonitorSweep(ctx, mon.SessionOptions(), methods, bounds, common.Parallelism)
	if err != nil {
		return err
	}
	out := mon.Out
	if out == "" {
		out = "BENCH_monitor.json"
	}
	if err := writeReport(out, bench); err != nil {
		return err
	}
	for _, c := range bench.Cells {
		fmt.Printf("%-8s eps=%-6g CR=%6.2f TE=%.4f delay=%5d F1=%.2f\n",
			c.Method, c.Epsilon, c.Report.CompressionRatio, c.Report.TE,
			c.Report.DriftDelay, c.Report.F1)
	}
	return nil
}

// writeReport writes v as indented JSON to path, or stdout when path is
// empty.
func writeReport(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
