// Command rubic-serve drives workloads under open-loop load: a seeded
// arrival process offers requests at a target rate regardless of how fast
// the system absorbs them (queueing delay is part of every measured
// latency), and the parallelism level is tuned online — against raw
// throughput like the closed-loop drivers, or against a p99 target through
// the SLO-aware controller.
//
//	rubic-serve -workload kv -arrival poisson -qps 800 -slo-p99 5ms
//	rubic-serve -arrival burst -qps 500 -policy rubic -duration 10s
//	rubic-serve -qps 200 -slo-p99 5ms -find-max          # max sustainable QPS
//	rubic-serve -stacks kv/qps=800/slo=5ms,kv/qps=200/slo=50ms
//	rubic-serve -qps 400 -slo-p99 5ms -adaptive tl2:backoff+norec:greedy
//	rubic-serve -smoke                                    # CI gate
//
// Single-stack runs print one line per epoch (level, posture, interval
// quantiles); every mode ends with a summary table. -json FILE writes a
// rubic-bench/v2 snapshot (p99 ns in the ns_op slot) that rubic-benchgate
// can gate like any benchmark output.
//
// -find-max sweeps the offered rate — doubling while the stack sustains the
// SLO, then bisecting — and reports the highest QPS at which the run held
// p99 under target with <1% shed.
//
// -stacks co-locates several open-loop stacks in one process, each with its
// own SLO; per-stack guards observe only their own latency.
//
// -smoke is the CI entry point: a short fixed-seed Poisson run at low QPS
// that exits nonzero unless the p999 is finite and the SLO controller ends
// the run meeting its target.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"text/tabwriter"
	"time"

	"rubic/internal/benchfmt"
	"rubic/internal/colocate"
	"rubic/internal/load"
)

type cliConfig struct {
	workload string
	arrival  string
	qps      float64
	theta    float64
	duration time.Duration
	epoch    time.Duration
	workers  int
	queue    int
	sloP99   time.Duration
	policy   string
	engine   string
	adaptive string
	seed     int64
	stacks   string
	findMax  bool
	jsonOut  string
	smoke    bool
	quiet    bool
	// durable is the -durable/-wal-dir/-fsync group: a write-ahead log for
	// every stack, in its own directory under -wal-dir.
	durable colocate.DurableFlags
}

func main() {
	var cfg cliConfig
	flag.StringVar(&cfg.workload, "workload", "kv", "workload: kv (keyed), ordered (keyed B-Link index), shardedkv (keyed, range-sharded runtime) or any internal/stamp/workloads name")
	flag.StringVar(&cfg.arrival, "arrival", "poisson", "arrival process: constant, poisson, diurnal or burst")
	flag.Float64Var(&cfg.qps, "qps", 400, "offered request rate (find-max: the sweep's starting rate)")
	flag.Float64Var(&cfg.theta, "theta", load.DefaultTheta, "Zipf skew for keyed workloads (0,1)")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "run duration (find-max: per probe)")
	flag.DurationVar(&cfg.epoch, "epoch", load.DefaultEpoch, "tuning/reporting epoch")
	flag.IntVar(&cfg.workers, "workers", 2*runtime.NumCPU(), "worker pool size (the maximum level)")
	flag.IntVar(&cfg.queue, "queue", load.DefaultQueueCap, "admission queue bound (arrivals beyond it are shed)")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "p99 latency target (0 disables the SLO guard)")
	flag.StringVar(&cfg.policy, "policy", "", "controller: slo, rubic or fixed (default slo with a target, fixed without)")
	flag.StringVar(&cfg.engine, "algo", "tl2", "stm engine: tl2 or norec")
	flag.StringVar(&cfg.adaptive, "adaptive", "", "'+'-separated engine[:cm] hot-swap candidates (e.g. tl2:backoff+norec:greedy); in -stacks specs use the adaptive= key")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed (arrivals, keys and pool all derive from it)")
	flag.StringVar(&cfg.stacks, "stacks", "", "co-located stacks, e.g. kv/qps=800/slo=5ms,kv/qps=200/slo=50ms")
	flag.BoolVar(&cfg.findMax, "find-max", false, "sweep for the max sustainable QPS under -slo-p99")
	flag.StringVar(&cfg.jsonOut, "json", "", "write a rubic-bench/v2 snapshot to this file")
	flag.BoolVar(&cfg.smoke, "smoke", false, "CI smoke: short fixed-seed run, fail unless the SLO converges")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress the per-epoch report")
	cfg.durable.Register(flag.CommandLine)
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rubic-serve:", err)
		os.Exit(1)
	}
}

func run(cfg cliConfig, out io.Writer) error {
	if _, err := cfg.durable.Options(""); err != nil {
		return err
	}
	if cfg.durable.On && cfg.findMax {
		return fmt.Errorf("-find-max probes reuse seeds; a recovered log would carry state between probes, so it does not combine with -durable")
	}
	if cfg.smoke {
		return runSmoke(cfg, out)
	}
	if cfg.findMax {
		return runFindMax(cfg, out)
	}
	if cfg.stacks != "" {
		return runStacks(cfg, out)
	}
	_, err := runSingle(cfg, out)
	return err
}

// flagSpec assembles the single-stack spec from the flags; the policy
// defaults are the -stacks grammar's own (ServeSpec.Normalize).
func flagSpec(cfg cliConfig) (colocate.ServeSpec, error) {
	spec := colocate.ServeSpec{
		Workload: cfg.workload,
		Arrival:  cfg.arrival,
		QPS:      cfg.qps,
		SLO:      cfg.sloP99,
		Policy:   cfg.policy,
		Theta:    cfg.theta,
		Adaptive: cfg.adaptive,
	}
	switch spec.Normalize() {
	case "qps":
		return spec, fmt.Errorf("need -qps > 0, got %v", spec.QPS)
	case "slo":
		return spec, fmt.Errorf("-policy slo needs -slo-p99")
	}
	return spec, nil
}

// buildProc builds one stack from a spec with the CLI's shared knobs applied.
// prefix dedupes identical co-located specs ("P1-"); the log directory
// follows the final name.
func buildProc(cfg cliConfig, spec colocate.ServeSpec, seed int64, prefix string) (colocate.Proc, error) {
	proc, err := spec.Build(cfg.engine, cfg.workers, seed)
	if err != nil {
		return proc, err
	}
	proc.Name = prefix + proc.Name
	proc.Serve.Epoch = cfg.epoch
	proc.Serve.QueueCap = cfg.queue
	proc.Durable, err = cfg.durable.Options(proc.Name)
	return proc, err
}

func runSingle(cfg cliConfig, out io.Writer) (*load.Result, error) {
	spec, err := flagSpec(cfg)
	if err != nil {
		return nil, err
	}
	proc, err := buildProc(cfg, spec, cfg.seed, "")
	if err != nil {
		return nil, err
	}
	if !cfg.quiet {
		proc.Serve.OnEpoch = func(e load.EpochStat) {
			state := e.State
			if state == "" {
				state = "-"
			}
			fmt.Fprintf(out, "epoch %3d  level=%-2d state=%-9s qps=%-6.0f p50=%-10v p99=%-10v p999=%-10v queue=%d shed=%d\n",
				e.Index, e.Level, state, e.QPS, e.P50, e.P99, e.P999, e.QueueDepth, e.Shed)
		}
	}
	fmt.Fprintf(out, "serving %s under %s arrivals at %.0f QPS for %v (workers %d, policy %s, engine %s)...\n",
		spec.Workload, spec.Arrival, spec.QPS, cfg.duration, cfg.workers, spec.Policy, cfg.engine)
	results, err := serve(cfg, out, []colocate.Proc{proc})
	if err != nil {
		return nil, err
	}
	return results[0].Serve, nil
}

func runStacks(cfg cliConfig, out io.Writer) error {
	specs, err := colocate.ParseServeSpecs(cfg.stacks)
	if err != nil {
		return err
	}
	var procs []colocate.Proc
	for i, s := range specs {
		proc, err := buildProc(cfg, s, cfg.seed+int64(i)*7919, "P"+strconv.Itoa(i+1)+"-")
		if err != nil {
			return err
		}
		procs = append(procs, proc)
	}
	fmt.Fprintf(out, "co-locating %d open-loop stacks for %v (workers %d each, engine %s, %d CPUs)...\n",
		len(procs), cfg.duration, cfg.workers, cfg.engine, runtime.NumCPU())
	_, err = serve(cfg, out, procs)
	return err
}

// serve runs the stacks side by side and reports: summary table, log
// outcomes, and the -json snapshot. A run that failed after its stacks
// started (verification, a failed or wedged sibling) still came back with
// every finished stack's result: those are printed before the error returns.
func serve(cfg cliConfig, out io.Writer, procs []colocate.Proc) ([]colocate.Result, error) {
	group, err := colocate.NewGroup(procs, 0)
	if err != nil {
		return nil, err
	}
	results, runErr := group.Run(cfg.duration)
	if results == nil {
		return nil, runErr
	}
	if err := report(out, results); err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Wal != nil {
			fmt.Fprintf(out, "%s: %s\n", r.Name, r.Wal)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return results, writeJSON(cfg, out, benchEntries(results))
}

// writeJSON writes the -json snapshot, if one was asked for.
func writeJSON(cfg cliConfig, out io.Writer, entries map[string]benchfmt.Result) error {
	if cfg.jsonOut == "" {
		return nil
	}
	if err := benchfmt.Emit(cfg.jsonOut, entries); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", cfg.jsonOut)
	return nil
}

// runFindMax sweeps the offered rate for the highest the stack sustains
// under the SLO: double from the starting rate while probes pass, then
// bisect between the last sustained and first failed rate.
func runFindMax(cfg cliConfig, out io.Writer) error {
	if cfg.sloP99 <= 0 {
		return fmt.Errorf("-find-max needs -slo-p99")
	}
	probeCfg := cfg
	probeCfg.quiet = true
	probeCfg.jsonOut = ""
	probe := func(qps float64) (bool, error) {
		probeCfg.qps = qps
		res, err := runSingle(probeCfg, io.Discard)
		if err != nil {
			return false, err
		}
		ok := sustained(res, cfg.sloP99)
		verdict := "SUSTAINED"
		if !ok {
			verdict = "failed"
		}
		fmt.Fprintf(out, "probe %6.0f QPS: p99=%-10v shed=%-5d %s\n", qps, res.P99, res.Shed, verdict)
		return ok, nil
	}

	good, bad := 0.0, 0.0
	qps := cfg.qps
	for i := 0; i < 8; i++ {
		ok, err := probe(qps)
		if err != nil {
			return err
		}
		if !ok {
			bad = qps
			break
		}
		good = qps
		qps *= 2
	}
	if good == 0 {
		return fmt.Errorf("starting rate %.0f QPS already misses the SLO; retry with a lower -qps", cfg.qps)
	}
	if bad == 0 {
		fmt.Fprintf(out, "max sustainable QPS >= %.0f (ramp exhausted; raise -qps to probe further)\n", good)
		return nil
	}
	for i := 0; i < 4; i++ {
		mid := (good + bad) / 2
		ok, err := probe(mid)
		if err != nil {
			return err
		}
		if ok {
			good = mid
		} else {
			bad = mid
		}
	}
	fmt.Fprintf(out, "max sustainable QPS ~= %.0f under p99 <= %v (next failure at %.0f)\n", good, cfg.sloP99, bad)
	return writeJSON(cfg, out, map[string]benchfmt.Result{
		"ServeMaxQPS/" + cfg.workload + "/" + cfg.arrival: {
			Procs:   runtime.GOMAXPROCS(0),
			NsPerOp: float64(cfg.sloP99.Nanoseconds()),
			Metrics: map[string]float64{"max-sustainable-qps": good},
		},
	})
}

// sustained is the sweep's pass criterion: the whole run's p99 held under
// target and shedding stayed under 1% of arrivals (an open-loop server that
// meets its SLO by dropping the load isn't sustaining it).
func sustained(res *load.Result, slo time.Duration) bool {
	return res.P99 <= slo && res.Shed*100 <= res.Arrived
}

// runSmoke is the CI gate: fixed seed, modest Poisson load, generous SLO.
// It fails unless the guard ends the run meeting its target with a finite
// p999 — the open-loop path, histogram and SLO controller all working.
func runSmoke(cfg cliConfig, out io.Writer) error {
	cfg.workload, cfg.arrival = "kv", "poisson"
	cfg.qps, cfg.theta = 300, load.DefaultTheta
	cfg.sloP99, cfg.policy = 250*time.Millisecond, "slo"
	cfg.duration, cfg.epoch = 1500*time.Millisecond, 100*time.Millisecond
	if cfg.workers > 4 {
		cfg.workers = 4
	}
	cfg.queue, cfg.seed = load.DefaultQueueCap, 7
	cfg.findMax, cfg.stacks = false, ""
	cfg.durable.On = false // the smoke gate measures the latency path, not the log
	res, err := runSingle(cfg, out)
	if err != nil {
		return err
	}
	if res.Completed == 0 {
		return fmt.Errorf("smoke: no requests served")
	}
	if res.P999 <= 0 || res.P999 > time.Minute {
		return fmt.Errorf("smoke: p999 %v not finite", res.P999)
	}
	if res.SLOState != "meeting" {
		return fmt.Errorf("smoke: SLO controller ended %q (stats %+v), want meeting", res.SLOState, res.SLO)
	}
	fmt.Fprintf(out, "serve-smoke: PASS (p999=%v, slo %+v)\n", res.P999, res.SLO)
	return nil
}

func report(out io.Writer, results []colocate.Result) error {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nstack\tarrived\tcompleted\tshed\tqps\tp50\tp99\tp999\tmax\tmean-level\tslo")
	for _, stack := range results {
		r := stack.Serve
		if r == nil {
			continue // wedged in teardown: no result, the run's error names it
		}
		slo := "-"
		if r.SLOState != "" {
			slo = fmt.Sprintf("%s (%d cuts)", r.SLOState, r.SLO.Cuts)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f\t%v\t%v\t%v\t%v\t%.1f\t%s\n",
			stack.Name, r.Arrived, r.Completed, r.Shed, r.QPS, r.P50, r.P99, r.P999, r.Max, r.MeanLevel, slo)
	}
	return tw.Flush()
}

// benchEntries maps results into the shared snapshot schema: p99 ns rides
// the ns_op slot so rubic-benchgate's time gate applies to tail latency
// unchanged; the companions travel as custom metrics.
func benchEntries(results []colocate.Result) map[string]benchfmt.Result {
	out := map[string]benchfmt.Result{}
	for _, stack := range results {
		r := stack.Serve
		out["Serve/"+stack.Name] = benchfmt.Result{
			Procs:   runtime.GOMAXPROCS(0),
			Iters:   int64(r.Completed),
			NsPerOp: float64(r.P99.Nanoseconds()),
			Metrics: map[string]float64{
				"p50-ns":     float64(r.P50.Nanoseconds()),
				"p999-ns":    float64(r.P999.Nanoseconds()),
				"max-ns":     float64(r.Max.Nanoseconds()),
				"qps":        r.QPS,
				"shed":       float64(r.Shed),
				"mean-level": r.MeanLevel,
			},
		}
	}
	return out
}
