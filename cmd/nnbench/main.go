// Command nnbench measures the nn kernel layer's fast path (blocked
// matmuls, fused ops, arena pooling) against the reference kernels and
// writes the comparison to a JSON file (BENCH_nn.json by default). CI runs
// it as a smoke check; the headline section records the speedup and
// allocation ratios quoted in EXPERIMENTS.md.
//
// Usage:
//
//	nnbench [-quick] [-out BENCH_nn.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"lossyts/internal/cli"
	"lossyts/internal/forecast"
	"lossyts/internal/nn"
)

// measurement is one timed side (fast or reference) of a benchmark.
type measurement struct {
	Iters       int     `json:"iters"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MsPerOp     float64 `json:"ms_per_op"`
}

// comparison pairs the two kernel modes of one workload.
type comparison struct {
	Benchmark  string      `json:"benchmark"`
	Fast       measurement `json:"fast"`
	Reference  measurement `json:"reference"`
	Speedup    float64     `json:"speedup"`
	AllocRatio float64     `json:"alloc_ratio"`
}

type report struct {
	Tool        string       `json:"tool"`
	Quick       bool         `json:"quick"`
	GoVersion   string       `json:"go_version"`
	GoArch      string       `json:"goarch"`
	NumCPU      int          `json:"num_cpu"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	AVX2Kernels bool         `json:"avx2_kernels"`
	Headline    headline     `json:"headline"`
	Results     []comparison `json:"results"`
}

type headline struct {
	MatMulSpeedup          float64 `json:"matmul_speedup"`
	GRUStepSpeedup         float64 `json:"gru_step_speedup"`
	GRUStepAllocRatio      float64 `json:"gru_step_alloc_ratio"`
	TransformerSpeedup     float64 `json:"transformer_step_speedup"`
	TransformerAllocRatio  float64 `json:"transformer_step_alloc_ratio"`
	AllStepSpeedupsAtLeast float64 `json:"all_step_speedups_at_least"`
	AllocRatiosAtLeast     float64 `json:"alloc_ratios_at_least"`
}

// accum collects the timed rounds of one kernel mode.
type accum struct {
	iters   int
	elapsed time.Duration
	mallocs uint64
	bytes   uint64
}

// round times step under the given kernel mode until both minIters and
// minDur are reached, adding wall time and runtime.MemStats deltas to acc. A
// forced GC first keeps the other mode's garbage from being charged here.
func round(acc *accum, step func(), reference bool, minIters int, minDur time.Duration) {
	nn.UseReferenceKernels(reference)
	defer nn.UseReferenceKernels(false)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	iters := 0
	for iters < minIters || time.Since(start) < minDur {
		step()
		iters++
	}
	acc.elapsed += time.Since(start)
	runtime.ReadMemStats(&ms1)
	acc.iters += iters
	acc.mallocs += ms1.Mallocs - ms0.Mallocs
	acc.bytes += ms1.TotalAlloc - ms0.TotalAlloc
}

func (a accum) measurement() measurement {
	return measurement{
		Iters:       a.iters,
		NsPerOp:     a.elapsed.Nanoseconds() / int64(a.iters),
		AllocsPerOp: int64(a.mallocs) / int64(a.iters),
		BytesPerOp:  int64(a.bytes) / int64(a.iters),
		MsPerOp:     float64(a.elapsed.Nanoseconds()) / float64(a.iters) / 1e6,
	}
}

// matmulStep mirrors BenchmarkMatMul: a training-shaped matmul forward +
// backward with the graph and gradient buffers the arena absorbs.
func matmulStep() func() {
	rng := rand.New(rand.NewSource(1))
	const rows, d = 256, 64
	x := nn.Randn(rng, 1, rows, d)
	w := nn.Randn(rng, 1, d, d).Param()
	arena := nn.NewArena()
	return func() {
		w.ZeroGrad()
		nn.Mean(nn.MatMul(x.InArena(arena), w)).Backward()
		arena.Reset()
	}
}

func ratio(ref, fast float64) float64 {
	if fast == 0 {
		return 0
	}
	return ref / fast
}

func main() {
	quick := flag.Bool("quick", false, "run fewer iterations (CI smoke mode)")
	out := flag.String("out", "BENCH_nn.json", "output JSON path")
	common := cli.BindProfiling(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := common.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "nnbench: %v\n", err)
		os.Exit(1)
	}
	// Profiles flush on the success path only; error paths exit directly
	// (a truncated profile of a failed benchmark is not worth keeping).
	defer stopProfiles()

	// Fast and reference run in alternating rounds so ambient load drift
	// and GC pacing shifts hit both sides alike instead of skewing the
	// ratio the way a single long run per side would.
	rounds, minIters, roundDur := 5, 3, 1200*time.Millisecond
	if *quick {
		rounds, minIters, roundDur = 1, 1, 0
	}

	type workload struct {
		name string
		// build returns a fresh step closure; each kernel mode gets its own
		// model instance so optimizer state never crosses modes.
		build func() (func(), error)
	}
	workloads := []workload{
		{"MatMul", func() (func(), error) { return matmulStep(), nil }},
		{"GRUStep", func() (func(), error) { return forecast.OneTrainingStep("GRU", 32, 1) }},
		{"TransformerStep", func() (func(), error) { return forecast.OneTrainingStep("Transformer", 32, 1) }},
	}

	rep := report{
		Tool: "nnbench", Quick: *quick, GoVersion: runtime.Version(), GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), AVX2Kernels: nn.AVX2Kernels(),
	}
	for _, w := range workloads {
		var cmp comparison
		cmp.Benchmark = w.name
		// Each kernel mode gets its own step closure (and model instance),
		// so optimizer state never crosses modes; warm each up once.
		var steps [2]func() // [fast, reference]
		var accs [2]accum
		for i, reference := range []bool{false, true} {
			step, err := w.build()
			if err != nil {
				fmt.Fprintf(os.Stderr, "nnbench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			nn.UseReferenceKernels(reference)
			step()
			nn.UseReferenceKernels(false)
			steps[i] = step
		}
		for r := 0; r < rounds; r++ {
			for i, reference := range []bool{false, true} {
				round(&accs[i], steps[i], reference, minIters, roundDur)
			}
		}
		cmp.Fast = accs[0].measurement()
		cmp.Reference = accs[1].measurement()
		cmp.Speedup = ratio(float64(cmp.Reference.NsPerOp), float64(cmp.Fast.NsPerOp))
		cmp.AllocRatio = ratio(float64(cmp.Reference.AllocsPerOp), float64(cmp.Fast.AllocsPerOp))
		rep.Results = append(rep.Results, cmp)
		fmt.Printf("%-16s fast %8.2f ms/op %7d allocs/op | reference %8.2f ms/op %7d allocs/op | %.2fx speed, %.2fx allocs\n",
			w.name, cmp.Fast.MsPerOp, cmp.Fast.AllocsPerOp,
			cmp.Reference.MsPerOp, cmp.Reference.AllocsPerOp,
			cmp.Speedup, cmp.AllocRatio)
	}

	rep.Headline = headline{
		MatMulSpeedup:         rep.Results[0].Speedup,
		GRUStepSpeedup:        rep.Results[1].Speedup,
		GRUStepAllocRatio:     rep.Results[1].AllocRatio,
		TransformerSpeedup:    rep.Results[2].Speedup,
		TransformerAllocRatio: rep.Results[2].AllocRatio,
	}
	minSpeed := rep.Results[1].Speedup
	if rep.Results[2].Speedup < minSpeed {
		minSpeed = rep.Results[2].Speedup
	}
	minAlloc := rep.Results[1].AllocRatio
	if rep.Results[2].AllocRatio < minAlloc {
		minAlloc = rep.Results[2].AllocRatio
	}
	rep.Headline.AllStepSpeedupsAtLeast = minSpeed
	rep.Headline.AllocRatiosAtLeast = minAlloc

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nnbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "nnbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
