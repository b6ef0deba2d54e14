// Command rubic-serve drives workloads under open-loop load: a seeded
// arrival process offers requests at a target rate regardless of how fast
// the system absorbs them (queueing delay is part of every measured
// latency), and the parallelism level is tuned online — against raw
// throughput like the closed-loop drivers, or against a p99 target through
// the SLO-aware controller.
//
// Each stack is a colocate.StackSpec with qps= set (the grammar
// rubic-colocate takes); -algo, -pool and -seed are the flags it shares with
// rubic-colocate.
//
//	rubic-serve -procs kv/qps=800/slo=5ms
//	rubic-serve -procs kv:rubic/qps=500/arrival=burst -duration 10s
//	rubic-serve -procs kv/qps=200/slo=5ms -find-max      # max sustainable QPS
//	rubic-serve -procs kv/qps=800/slo=5ms,kv/qps=200/slo=50ms
//	rubic-serve -procs kv/qps=400/slo=5ms/adaptive=tl2:backoff+norec:greedy
//	rubic-serve -smoke                                    # CI gate
//
// A single stack prints one line per epoch (level, posture, interval
// quantiles); every run ends with a summary table. -json FILE writes a
// rubic-bench/v2 snapshot (p99 ns in the ns_op slot) that rubic-benchgate
// can gate like any benchmark output.
//
// -find-max sweeps one stack's offered rate — doubling from its qps= while it
// sustains its slo=, then bisecting — and reports the highest QPS at which
// the run held p99 under target with <1% shed.
//
// Several stacks co-locate in one process, each with its own SLO; per-stack
// guards observe only their own latency.
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
	"text/tabwriter"
	"time"

	"rubic/internal/benchfmt"
	"rubic/internal/colocate"
	"rubic/internal/load"
)

type cliConfig struct {
	procs    string
	duration time.Duration
	epoch    time.Duration
	queue    int
	findMax  bool
	jsonOut  string
	smoke    bool
	quiet    bool
	// stack is -algo, -pool, -seed and the -durable/-wal-dir/-fsync group,
	// shared with rubic-colocate and its agent.
	stack colocate.StackFlags
}

func main() {
	var cfg cliConfig
	register(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rubic-serve:", err)
		os.Exit(1)
	}
}

// register declares the command line over cfg.
func register(fs *flag.FlagSet, cfg *cliConfig) {
	fs.StringVar(&cfg.procs, "procs", "kv/qps=400", "comma-separated open-loop stacks, workload[:policy][@delay]/qps=<rate>[/key=value]...")
	fs.DurationVar(&cfg.duration, "duration", 3*time.Second, "run duration (find-max: per probe)")
	fs.DurationVar(&cfg.epoch, "epoch", load.DefaultEpoch, "tuning/reporting epoch")
	fs.IntVar(&cfg.queue, "queue", load.DefaultQueueCap, "admission queue bound (arrivals beyond it are shed)")
	fs.BoolVar(&cfg.findMax, "find-max", false, "sweep one stack's qps= for the max sustainable rate under its slo=")
	fs.StringVar(&cfg.jsonOut, "json", "", "write a rubic-bench/v2 snapshot to this file")
	fs.BoolVar(&cfg.smoke, "smoke", false, "CI smoke: short fixed-seed run, fail unless the SLO converges")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress the per-epoch report")
	cfg.stack.Register(fs)
}

func run(cfg cliConfig, out io.Writer) error {
	if cfg.smoke {
		return runSmoke(cfg, out)
	}
	specs, err := colocate.ParseSpecs(cfg.procs)
	if err != nil {
		return err
	}
	for _, s := range specs {
		if s.QPS <= 0 {
			return fmt.Errorf("stack %s has no qps=: rubic-serve runs open-loop stacks (closed-loop ones run in rubic-colocate)", s)
		}
	}
	if !cfg.findMax {
		_, err := runStacks(cfg, specs, out)
		return err
	}
	if cfg.stack.Durable.On {
		return fmt.Errorf("-find-max probes reuse seeds; a recovered log would carry state between probes, so it does not combine with -durable")
	}
	if len(specs) != 1 {
		return fmt.Errorf("-find-max sweeps one stack, got %d", len(specs))
	}
	return runFindMax(cfg, specs[0], out)
}

// buildStacks assembles the stacks, the i-th named and seeded as every
// driver does it, with the CLI's epoch and queue bound.
func buildStacks(cfg cliConfig, specs []colocate.StackSpec) ([]colocate.Proc, error) {
	opts := colocate.StackOptions{StackFlags: cfg.stack, Processes: len(specs)}
	var procs []colocate.Proc
	for i, s := range specs {
		proc, err := s.Proc(s.Name(i), opts.For(i))
		if err != nil {
			return nil, err
		}
		proc.Serve.Epoch, proc.Serve.QueueCap = cfg.epoch, cfg.queue
		procs = append(procs, proc)
	}
	return procs, nil
}

// runStacks serves the stacks side by side; a single stack reports each
// epoch as it closes.
func runStacks(cfg cliConfig, specs []colocate.StackSpec, out io.Writer) ([]colocate.Result, error) {
	procs, err := buildStacks(cfg, specs)
	if err != nil {
		return nil, err
	}
	if len(procs) > 1 {
		fmt.Fprintf(out, "co-locating %d open-loop stacks for %v (pool %d each, engine %s, %d CPUs)...\n",
			len(procs), cfg.duration, cfg.stack.Pool, cfg.stack.Engine, runtime.NumCPU())
		return serve(cfg, out, procs)
	}
	if !cfg.quiet {
		procs[0].Serve.OnEpoch = func(e load.EpochStat) {
			state := e.State
			if state == "" {
				state = "-"
			}
			fmt.Fprintf(out, "epoch %3d  level=%-2d state=%-9s qps=%-6.0f p50=%-10v p99=%-10v p999=%-10v queue=%d shed=%d\n",
				e.Index, e.Level, state, e.QPS, e.P50, e.P99, e.P999, e.QueueDepth, e.Shed)
		}
	}
	s := specs[0]
	fmt.Fprintf(out, "serving %s under %s arrivals at %.0f QPS for %v (pool %d, policy %s, engine %s)...\n",
		s.Workload, s.Arrival, s.QPS, cfg.duration, cfg.stack.Pool, s.Policy, cfg.stack.Engine)
	return serve(cfg, out, procs)
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

// runFindMax sweeps the stack's offered rate for the highest it sustains
// under its SLO: double from the spec's qps= while probes pass, then bisect
// between the last sustained and first failed rate.
func runFindMax(cfg cliConfig, spec colocate.StackSpec, out io.Writer) error {
	if spec.SLO <= 0 {
		return fmt.Errorf("-find-max needs slo= on the stack")
	}
	probeCfg := cfg
	probeCfg.quiet = true
	probeCfg.jsonOut = ""
	probe := func(qps float64) (bool, error) {
		s := spec
		s.QPS = qps
		results, err := runStacks(probeCfg, []colocate.StackSpec{s}, io.Discard)
		if err != nil {
			return false, err
		}
		res := results[0].Serve
		ok := sustained(res, spec.SLO)
		verdict := "SUSTAINED"
		if !ok {
			verdict = "failed"
		}
		fmt.Fprintf(out, "probe %6.0f QPS: p99=%-10v shed=%-5d %s\n", qps, res.P99, res.Shed, verdict)
		return ok, nil
	}

	good, bad := 0.0, 0.0
	qps := spec.QPS
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
		return fmt.Errorf("starting rate %.0f QPS already misses the SLO; retry with a lower qps=", spec.QPS)
	}
	if bad == 0 {
		fmt.Fprintf(out, "max sustainable QPS >= %.0f (ramp exhausted; raise qps= to probe further)\n", good)
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
	fmt.Fprintf(out, "max sustainable QPS ~= %.0f under p99 <= %v (next failure at %.0f)\n", good, spec.SLO, bad)
	return writeJSON(cfg, out, map[string]benchfmt.Result{
		"ServeMaxQPS/" + spec.Workload + "/" + spec.Arrival: {
			Procs:   runtime.GOMAXPROCS(0),
			NsPerOp: float64(spec.SLO.Nanoseconds()),
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
	cfg.duration, cfg.epoch, cfg.queue = 1500*time.Millisecond, 100*time.Millisecond, load.DefaultQueueCap
	cfg.stack.Pool, cfg.stack.Seed = min(cfg.stack.Pool, 4), 7
	cfg.stack.Durable.On = false // the smoke gate measures the latency path, not the log
	specs, err := colocate.ParseSpecs("kv/qps=300/slo=250ms")
	if err != nil {
		return err
	}
	results, err := runStacks(cfg, specs, out)
	if err != nil {
		return err
	}
	res := results[0].Serve
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
