// Command perfbench is the repository's benchmark. It runs one named
// workload against the in-tree packages, checks every output, and prints as
// its last line one JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, timed by this
// program around its calls into each package's public functions.
//
// Build and run it through the wrapper, from the root of the repository:
//
//	bash perfbench/run.sh --workload grid-neural --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20
//
// "all" runs the four workloads in turn, prints each one's result line and
// exits non-zero if any of them failed.
//
// README.md in this directory describes the workloads, the metrics, and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process start for the report's
// start-to-first-operation figure.
var processStart = time.Now()

// setupReps is how many times each workload builds its inputs; setup_s is
// the median, so one slow set-up does not move the figure.
const setupReps = 5

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run. Every workload reports each
// of them; README.md gives each workload's reading of "operation".
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// Codec, model and stage names the per-layer metrics are split by.
var (
	layerCodecs = []string{"PMC", "SWING", "SZ", "CAMEO", "LFZIP", "GORILLA"}
	deepModels  = []string{"DLinear", "GRU", "Informer", "NBeats", "Transformer"}
	allModels   = []string{"Arima", "GBoost", "DLinear", "GRU", "Informer", "NBeats", "Transformer"}
	gridStages  = []string{"ingest", "compress", "reconstruct", "window", "train", "forecast", "analyze", "checkpoint"}
	serveKinds  = []string{"compress.hit", "compress.miss", "decompress", "forecast.hit", "forecast.miss", "forecast.dedup"}
)

// perLayer lists the metrics of a traced run, in report order.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	add("s", "datasets.load_s")
	add("count", "datasets.points")
	for _, c := range layerCodecs {
		add("s", "compress.encode_s."+c)
	}
	for _, c := range layerCodecs {
		add("s", "compress.decode_s."+c)
	}
	add("s", "compress.ratio_s")
	add("bytes", "compress.payload_bytes")
	add("count", "compress.points")
	add("s", "compress.stream_encode_s", "compress.stream_decode_s", "timeseries.window_s")
	for _, m := range deepModels {
		add("ms", "nn.step_ms."+m)
	}
	for _, m := range deepModels {
		add("allocs/step", "nn.allocs_per_step."+m)
	}
	for _, m := range allModels {
		add("s", "forecast.fit_s."+m)
	}
	for _, m := range allModels {
		add("s", "forecast.predict_s."+m)
	}
	add("s", "forecast.session_update_s")
	for _, s := range gridStages {
		add("s", "core.stage_s."+s)
	}
	add("s", "core.unattributed_s")
	add("count", "core.units", "core.cell_evals")
	add("s", "core.session_checkpoint_s")
	add("bytes", "cellstore.journal_bytes")
	add("s", "cellstore.load_s")
	for _, k := range serveKinds {
		add("ms", "serve.p50_ms."+k)
	}
	for _, k := range serveKinds {
		add("ms", "serve.p99_ms."+k)
	}
	add("count", "serve.requests", "serve.hits", "serve.dedups", "serve.computations")
	add("ratio", "serve.hit_ratio")
	add("bytes", "serve.bytes_in", "serve.bytes_out")
	add("ms", "serve.generator_late_p99_ms")
	add("s", "features.drift_push_s")
	add("count", "features.drift_checks")
	add("s", "features.shift_push_s", "anomaly.push_s")
	add("count", "anomaly.detections")
	return d
}()

// env is what every workload receives: the run's parameters, a directory
// for its stores and files, and the span recorder of a traced run.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string
	tr      *tracer
}

// run accumulates one workload run's outcome.
type run struct {
	attempted, failed int64
	failures          []string
	// e2e holds the end-to-end metrics of an untraced run.
	e2e map[string]float64
	// layers holds the per-layer metrics of a traced run; layers a workload
	// never calls stay 0.
	layers map[string]float64
	// named holds the workload's own figures under workload-specific names
	// (grid_wall_s, serve_p99_ms, quality guards), printed by name and unit
	// but not part of the result line.
	named []namedValue
	// extra holds report-only detail: reconciliation lines, tracing
	// overhead, sample counts.
	extra map[string]any
	// digest is the hash of every checked output of the run; runs of one
	// binary with one seed must agree on it.
	digest string
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRun() *run {
	r := &run{e2e: map[string]float64{}, layers: map[string]float64{}, extra: map[string]any{}}
	for _, d := range perLayer {
		r.layers[d.Name] = 0
	}
	return r
}

// ok counts one checked operation that passed.
func (r *run) ok() { r.attempted++ }

// fail counts one operation that failed, keeping the first messages.
func (r *run) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed when err is non-nil.
func (r *run) check(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	r.ok()
}

// agree folds one output digest into the run: the first becomes the run's
// digest, and every later one must equal it.
func (r *run) agree(what, sum string) {
	switch {
	case r.digest == "":
		r.digest = sum
	case r.digest != sum:
		r.fail("%s: output digest %s differs from the run's first %s", what, sum, r.digest)
	}
}

func (r *run) name(name string, v float64, unit string) {
	r.named = append(r.named, namedValue{name, v, unit})
}

// workload is one benchmark scenario. setup builds fresh inputs, replacing
// any built before; measure and traced run the untraced and traced variants
// against the latest set-up; close releases what setup holds.
type workload interface {
	setup(e *env) error
	measure(e *env, r *run) error
	traced(e *env, r *run) error
	close()
}

var workloads = []struct {
	name string
	make func() workload
}{
	{"grid-neural", func() workload { return &gridWorkload{neural: true} }},
	{"grid-codec", func() workload { return &gridWorkload{} }},
	{"serve-mixed", func() workload { return &serveWorkload{} }},
	{"monitor-session", func() workload { return &sessionWorkload{} }},
}

func main() {
	name := flag.String("workload", "", "workload to run: grid-neural, grid-codec, serve-mixed, monitor-session, or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("workdir", ".bench_build/work", "directory for stores, digests, traces and reports")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	var names []string
	if *name == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		names = []string{*name}
	}
	okAll := true
	for _, n := range names {
		ok, err := runWorkload(n, *seed, *seconds, *trace == 1, *dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		okAll = okAll && ok
	}
	if !okAll {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its report and result lines. It
// returns whether every check passed; an error means no result was
// produced.
func runWorkload(name string, seed int64, seconds float64, trace bool, dir string) (bool, error) {
	var w workload
	for _, c := range workloads {
		if c.name == name {
			w = c.make()
		}
	}
	if w == nil {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{seed: seed, seconds: seconds, trace: trace, dir: filepath.Join(dir, name, "scratch")}
	if err := os.RemoveAll(e.dir); err != nil {
		return false, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return false, err
	}
	if trace {
		e.tr = newTracer()
	}
	defer w.close()

	r := newRun()
	firstOp := time.Since(processStart)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := w.setup(e); err != nil {
			return false, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()
	var err error
	if trace {
		err = w.traced(e, r)
	} else {
		err = w.measure(e, r)
	}
	if err != nil {
		return false, err
	}
	r.e2e["setup_s"] = median(setups)
	r.extra["setup_samples_s"] = setups
	r.extra["process_start_to_setup_s"] = firstOp.Seconds()
	checkDigest(e, name, r)
	if r.attempted == 0 {
		r.fail("no operation was attempted")
	}
	if err := emit(e, name, r); err != nil {
		return false, err
	}
	return r.failed == 0, nil
}

// checkDigest compares the run's output digest with the one an earlier run
// of the same binary and seed recorded, and records it when it is the
// first. The record lives in the build directory, keyed by a hash of the
// executable, so a rebuilt program starts a fresh record.
func checkDigest(e *env, name string, r *run) {
	if r.digest == "" {
		r.fail("no output digest")
		return
	}
	exe, err := executableHash()
	if err != nil {
		r.fail("hashing the executable: %v", err)
		return
	}
	path := filepath.Join(e.dir, "..", "..", "digests", exe, fmt.Sprintf("%s-seed%d", name, e.seed))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != r.digest {
			r.fail("output digest %s differs from %s of an earlier run with this seed", r.digest, prev)
			return
		}
		r.ok()
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.fail("recording digest: %v", err)
		return
	}
	r.check("recording digest", os.WriteFile(path, []byte(r.digest), 0o644))
}

func executableHash() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// metadata is the run envelope every report carries.
func metadata(e *env) map[string]any {
	m := map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     e.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				m[s.Key] = s.Value
			}
		}
	}
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the human-readable report, writes the JSON report (and the
// spans of a traced run) under the work directory, and prints the result
// object as the last line of standard output.
func emit(e *env, name string, r *run) error {
	defs := endToEnd
	vals := r.e2e
	if e.trace {
		defs = perLayer
		vals = r.layers
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || isBad(v) {
			return fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	report := map[string]any{
		"workload":  name,
		"metadata":  metadata(e),
		"correct":   res.Correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"failures":  r.failures,
		"digest":    r.digest,
		"metrics":   res.Metrics,
		"named":     r.named,
		"detail":    r.extra,
	}
	rep, err := json.Marshal(report)
	if err != nil {
		return err
	}
	base := filepath.Join(e.dir, "..", fmt.Sprintf("report-seed%d-trace%d", e.seed, b2i(e.trace)))
	if err := os.WriteFile(base+".json", rep, 0o644); err != nil {
		return err
	}
	if e.tr != nil {
		if err := e.tr.write(base + ".spans.json"); err != nil {
			return err
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload %s  seed %d  traced %v  attempted %d  failed %d  digest %s\n",
		name, e.seed, e.trace, r.attempted, r.failed, r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(&b, "  FAILED %s\n", f)
	}
	for _, n := range r.named {
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	keys := make([]string, 0, len(r.extra))
	for k := range r.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		j, err := json.Marshal(r.extra[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "  %s: %s\n", k, j)
	}
	fmt.Fprintf(&b, "  report: %s\n", rep)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = os.Stdout.WriteString(b.String())
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// timedOp runs one operation and returns its wall clock (as run reports
// it) and the peak resident memory, in MiB, while it ran. Freed heap is
// returned to the OS and the kernel's peak counter (VmHWM) restarted before
// the operation, so each operation's peak is its own.
func timedOp(run func() (time.Duration, error)) (time.Duration, float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, 0, fmt.Errorf("resetting the peak RSS counter: %w", err)
	}
	d, err := run()
	if err != nil {
		return d, 0, err
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return d, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kib); err != nil {
				return d, 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return d, kib / 1024, nil
		}
	}
	return d, 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
