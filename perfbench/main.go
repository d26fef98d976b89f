// Command perfbench is the repository's end-to-end benchmark. It drives
// collsel only through its public package functions and the collseld HTTP
// surface, from one process with at most two closed-loop clients, and
// checks every answer it times. See README.md for the workloads, the
// metrics and why they were chosen.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDecl names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json; a self-test keeps them
// identical.
type metricDecl struct{ name, unit string }

var endToEndMetrics = []metricDecl{
	{"setup_s", "s"},
	{"compile_s", "s"},
	{"select_rps", "1/s"},
	{"p50_us", "us"},
	{"sim_backed_share", "share"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

var perLayerMetrics = []metricDecl{
	{"runner.cells", "count"},
	{"runner.cache_hit_ratio", "share"},
	{"microbench.cell_ms", "ms"},
	{"expt.select_ms", "ms"},
	{"expt.cold_select_ms", "ms"},
	{"expt.cold_select_odd_ms", "ms"},
	{"expt.cold_alloc_mb", "MB"},
	{"model.select_us", "us"},
	{"store.save_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.get_ns", "ns"},
	{"store.promote_ms", "ms"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.loopback_us", "us"},
	{"serve.model_answers", "count"},
	{"serve.cold_computes", "count"},
	{"serve.model_promotions", "count"},
	{"serve.promote_ratio", "share"},
	{"feedback.observe_us", "us"},
	{"feedback.recompiles", "count"},
	{"feedback.swaps_lost", "count"},
	{"feedback.recompile_ratio", "share"},
	{"cluster.forwards", "count"},
	{"cluster.hedges", "count"},
	{"cluster.forward_errors", "count"},
	{"cluster.forward_us", "us"},
	{"trace.spans", "count"},
	{"trace.span_cost_pct", "%"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"compile":     runCompile,
	"serve-hot":   runServeHot,
	"serve-mixed": runServeMixed,
	"serve-ring":  runServeRing,
}

func main() {
	workload := flag.String("workload", "", "workload to run: compile, serve-hot, serve-mixed or serve-ring")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; fixes the amount of work")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := newBench(*workload, *seed, *seconds, *trace == 1)
	if err == nil {
		start := time.Now()
		err = run(ctx, b)
		b.traceOverhead(time.Since(start))
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := b.report(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// bench is one run: its inputs, its scratch directory and what it measured.
type bench struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	dir      string // scratch directory for artifacts and WALs, removed on close
	spans    *spanLog

	values  map[string]float64
	samples map[string]int
	// attempted, failed and wrong count operations and answers over the
	// whole run; unverified counts table answers whose table version had
	// already been swapped out when the client looked it up.
	attempted, failed, wrong, unverified int64
	// unverifiedCap is the share of answers that may be unverified. It is 0
	// where the answering tables never change, so an unverified answer can
	// only mean the server named a version it does not serve.
	unverifiedCap float64
	problems      []string
	info          []string
}

func newBench(workload string, seed int64, seconds int, traced bool) (*bench, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, traced: traced, dir: dir,
		values: map[string]float64{}, samples: map[string]int{},
	}
	if traced {
		b.spans = newSpanLog()
	}
	return b, nil
}

func (b *bench) close() error {
	var err error
	if b.spans != nil {
		err = b.spans.write(filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed)))
	}
	return errors.Join(err, os.RemoveAll(b.dir))
}

// traceOverhead records how many spans a traced run kept and an estimate
// of their cost: one span record timed alone on one goroutine, times the
// count, as a share of the run's wall time. The estimate leaves out lock
// contention between clients and cache effects; the measured overhead is
// the traced run's end-to-end values against an untraced run of the same
// seed (compare.py overhead).
func (b *bench) traceOverhead(wall time.Duration) {
	if b.spans == nil {
		return
	}
	n := b.spans.len()
	b.set("trace.spans", float64(n), n)
	b.set("trace.span_cost_pct", 100*float64(time.Duration(n)*costPerSpan())/float64(wall), n)
}

// set records one metric value with the number of samples behind it.
func (b *bench) set(name string, v float64, n int) {
	b.values[name] = v
	b.samples[name] = n
}

// problem records a failed answer check; any problem makes the run
// incorrect.
func (b *bench) problem(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a printed, ungated line (p99, peak RSS, counts).
func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
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

// declared returns the metric list this run must emit.
func (b *bench) declared() []metricDecl {
	if b.traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// report prints the human-readable lines, the stamped record and, last,
// the result object.
func (b *bench) report(w io.Writer) error {
	res := result{
		Correct:   b.wrong == 0 && b.failed == 0 && len(b.problems) == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range b.declared() {
		v, ok := b.values[d.name]
		if !ok {
			// Layers that do no work on this workload report 0.
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-26s %14.6g %-6s n=%d\n", d.name, v, d.unit, b.samples[d.name])
	}
	for name := range b.values {
		if _, ok := res.Metrics[name]; !ok && !b.declaredName(name) {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	if b.traced {
		// The end-to-end values this traced run measured, to set beside an
		// untraced run of the same seed.
		for _, d := range endToEndMetrics {
			if v, ok := b.values[d.name]; ok {
				fmt.Fprintf(w, "traced %-26s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	errShare := 0.0
	if b.attempted > 0 {
		errShare = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "check wrong_picks %d count\n", b.wrong)
	fmt.Fprintf(w, "check error_share %.6g share (%d of %d operations)\n", errShare, b.failed, b.attempted)
	fmt.Fprintf(w, "check unverified_table_answers %d count\n", b.unverified)
	for _, line := range b.info {
		fmt.Fprintf(w, "info %s\n", line)
	}
	for _, p := range b.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	stamp, err := json.Marshal(stampRecord(b))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", stamp)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// declaredName reports whether name is declared in either metric list:
// a traced run may also measure end-to-end values for its overhead line.
func (b *bench) declaredName(name string) bool {
	for _, list := range [][]metricDecl{endToEndMetrics, perLayerMetrics} {
		for _, d := range list {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// record is the provenance stamped on every result.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
}

func stampRecord(b *bench) record {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return record{
		Workload: b.workload, Seed: b.seed, Seconds: b.seconds, Trace: b.traced,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo ("unknown"
// where the file does not exist).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sortedKeys returns m's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
