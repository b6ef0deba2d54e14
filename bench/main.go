// Command bench is the repository's end-to-end benchmark: named workloads
// driven through the product's own entry point (colocate.Group.Run → pool →
// workload task → stm → container → wal), measured from outside.
//
//	bench                      every workload but the defect repro, in turn
//	bench -workload kv-read    one workload; the last stdout line is JSON
//	bench -trace 1 ...         the separate traced run: per-layer metrics
//	bench -aa 5                two interleaved sets of 5 runs per workload
//
// See README.md for what each metric means and how steady it is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	walDir   string
	aa       int
	short    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload but the defect repro)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every key, rng and pool stream")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run (after the warm-up)")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, printing per-layer metrics instead")
	fs.StringVar(&o.outDir, "out", "", "directory for span files and logs (default bench/out)")
	fs.StringVar(&o.walDir, "waldir", "", "parent directory for write-ahead logs (default: under -out)")
	fs.IntVar(&o.aa, "aa", 0, "A/A mode: run every listed workload 2xN times as two interleaved sets")
	fs.BoolVar(&o.short, "short", false, "smoke run: 1.5 s measured, short probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.short && o.seconds > 1.5 {
		o.seconds = 1.5
	}
	if o.seconds < window.Seconds() {
		fmt.Fprintf(stderr, "bench: -seconds must cover at least one %v window\n", window)
		return 2
	}
	if o.outDir == "" {
		o.outDir = "out"
		if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
			o.outDir = filepath.Join("bench", "out")
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	// One busy worker plus one context for GC, the WAL logger and the
	// sampler is what repeats on a small shared VM; more contexts only add
	// the host's scheduling noise to every number. (A smaller GOMAXPROCS
	// from the environment is respected.)
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 2))

	if o.aa > 0 {
		return runAA(o, stdout, stderr)
	}

	defs := []*workloadDef{}
	if o.workload == "" {
		for i := range workloads {
			if !workloads[i].repro {
				defs = append(defs, &workloads[i])
			}
		}
	} else {
		def := findWorkload(o.workload)
		if def == nil {
			var names []string
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
			return 2
		}
		defs = append(defs, def)
	}

	env := readEnvironment(o)
	env.print(stdout, "before")
	if env.load1 > 0.5 {
		fmt.Fprintf(stderr, "bench: warning: 1-min load average %.2f > 0.5 before start; a noisy neighbour will bend the numbers\n", env.load1)
	}
	code := 0
	for _, def := range defs {
		res, err := runWorkload(def, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "load average after %s: %.2f\n", def.name, loadAverage())
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// result is the last-line JSON object of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares one metric of the benchmark's contract; BENCHMARK.json
// carries the same names, units and directions (bench_test.go compares).
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64 // end-to-end only: allowed worsening of the median
}

var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput_ops_s", "ops/s", true, 0.25},
	{"op_p50_us", "us", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
}

// report collects named values and prints them with their units.
type report struct {
	values map[string]float64
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

// emit prints the metrics in declaration order and returns them as the
// JSON map; a metric without a value is an error in the benchmark itself.
func (r *report) emit(w io.Writer, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// runWorkload runs one workload in the selected mode and prints its
// human-readable report; the caller prints the JSON line.
func runWorkload(def *workloadDef, o options, stdout io.Writer) (*result, error) {
	walBase := o.walDir
	if walBase == "" {
		walBase = o.outDir
	}
	if err := os.MkdirAll(walBase, 0o755); err != nil {
		return nil, err
	}
	// Every log of the run lives under one directory, removed on every
	// exit path: return, error, and interrupt.
	walDir, err := os.MkdirTemp(walBase, "wal-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-interrupted; ok {
			os.RemoveAll(walDir)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(interrupted)
		close(interrupted)
	}()

	fmt.Fprintf(stdout, "\n== %s (seed %d) — %s\n", def.name, o.seed, def.why)
	if o.trace != 0 {
		return runTraced(def, o, walDir, stdout)
	}
	return runEndToEnd(def, o, walDir, stdout)
}

// runEndToEnd is the untraced run: set-up timing, the saturated closed
// loop, verification.
func runEndToEnd(def *workloadDef, o options, walDir string, stdout io.Writer) (*result, error) {
	// Set-ups are timed in two batches, before and after the closed loop,
	// so that a noisy stretch of the host has to last the whole run to
	// reach every repetition.
	budget, minReps := 750*time.Millisecond, 3
	if o.short {
		budget, minReps = 150*time.Millisecond, 2
	}
	setups, err := timeSetups(def, o.seed, walDir, budget, minReps, 50)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	cfg := loopConfig{
		seed:    o.seed,
		warm:    o.warmUp(),
		windows: int(o.seconds / window.Seconds()),
		walDir:  walDir,
	}
	out, err := runClosedLoop(def.stacks, def.durable, cfg)
	if err != nil {
		return nil, err
	}
	after, err := timeSetups(def, o.seed, walDir, budget, minReps, 50)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, after...)
	if def.durable {
		for i, so := range out.stacks {
			if so.wal == nil {
				continue
			}
			took, recovered, err := recoverCheck(def.stacks[i], o.seed, so.walDir, so.wal)
			if err != nil {
				out.fail(1, "%s: restart: %v", so.name, err)
			}
			fmt.Fprintf(stdout, "  restart %s: recovered %d commits (last issued %d, durable %d) in %.3f ms\n",
				so.name, recovered, so.wal.LastCSN, so.wal.DurableCSN, took.Seconds()*1e3)
		}
	}

	workers := 0
	for _, sd := range def.stacks {
		workers += sd.pool
	}
	fmt.Fprintf(stdout, "  closed loop, 1 client per worker: %d stack(s), %d worker(s); %v warm-up, %d windows of %v\n",
		len(def.stacks), workers, cfg.warm, cfg.windows, window)
	var r report
	r.set("setup_s", quietTime(setups))
	r.set("throughput_ops_s", out.throughput)
	r.set("op_p50_us", out.p50us)
	r.set("cpu_us_per_op", out.cpuUsPerOp)
	metrics, err := r.emit(stdout, endToEnd)
	if err != nil {
		return nil, err
	}
	ws := sorted(out.windowOps)
	fmt.Fprintf(stdout, "  (gated: the quietest of %d windows and of %d fresh set-ups; op_p50_us from %d samples, 1 call in %d)\n",
		len(ws), len(setups), out.samples, sampleStride)
	fmt.Fprintf(stdout, "  whole interval, host interference and every GC cycle and log stall included (per-layer in the traced run):\n")
	fmt.Fprintf(stdout, "    throughput_interval_ops_s %.6g  op_p50_interval_us %.4g  cpu_interval_us_per_op %.4g  setup median %.4g s\n",
		out.intervalThroughput, out.intervalP50us, out.intervalCPUUsPerOp, median(setups))
	fmt.Fprintf(stdout, "    window throughput min %.6g median %.6g max %.6g; cores_busy %.3f (process CPU / wall); hypervisor steal %v\n",
		ws[0], quantileSorted(ws, 0.5), ws[len(ws)-1], out.coresBusy, out.stolen)
	fmt.Fprintf(stdout, "  fairness_jain %.6g  (per-layer in the traced run: defined only where stacks are co-located)\n", out.jain)
	fmt.Fprintf(stdout, "  ops_per_level_s %.6g  (per-layer in the traced run: the controllers' mean level wanders +-8%% between runs)\n", out.opsPerLevel)
	fmt.Fprintf(stdout, "  op_p99_us %.4g  (per-layer in the traced run: it follows the host's cache and repeats only within ~15%%)\n", out.p99us)
	fmt.Fprintf(stdout, "  allocs_per_op %.4f  alloc_bytes_per_op %.2f  gc_cycles_per_s %.2f  (per-layer in the traced run; zero on read-only workloads)\n",
		out.allocsPerOp, out.allocBytesPerOp, out.gcPerSec)
	for i, so := range out.stacks {
		fmt.Fprintf(stdout, "  stack %-8s %12.0f ops/s  mean level %.2f of %d\n", so.name, so.opsPerSec, so.meanLevel, def.stacks[i].pool)
	}
	if len(def.stacks) > 1 {
		fmt.Fprintf(stdout, "  mean total level %.2f on %d contexts: the throughput-vs-level curve is flat here, so convergence time and scaling are UNMEASURED on this host class\n",
			out.meanTotalLevel, runtime.GOMAXPROCS(0))
	}
	fmt.Fprintf(stdout, "  attempted=%d completed=%d failed=%d verify=%s\n", out.attempted, out.completed, out.failed, verdict(out.failed))
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "  problem: %s\n", p)
	}
	return &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, nil
}

// verdict is the report's one-word outcome for a failure count.
func verdict(failed uint64) string {
	if failed > 0 {
		return "FAILED"
	}
	return "ok"
}
