package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/load"
	"rubic/internal/wal"
)

// perLayer lists the traced run's metrics; the prefix is the package the
// number belongs to. Metrics that do not apply to a workload (wal.* on a
// stack without a log, colocate.p2_ops_s on a single stack) read 0.
var perLayer = []metricDef{
	{name: "load.zipf_next_ns", unit: "ns"},
	{name: "load.arrival_next_ns", unit: "ns"},
	{name: "load.queue_ops_ns", unit: "ns"},
	{name: "load.steady_p50_us", unit: "us"},
	{name: "load.steady_p99_us", unit: "us"},
	{name: "load.steady_cpu_us_per_op", unit: "us"},
	{name: "load.shed", unit: "count"},
	{name: "load.gen_late_us_p50", unit: "us"},
	{name: "load.gen_late_us_p99", unit: "us"},
	{name: "load.queue_wait_us_p50", unit: "us"},
	{name: "load.queue_wait_us_p99", unit: "us"},
	{name: "pool.dispatch_ns", unit: "ns"},
	{name: "pool.setlevel_us", unit: "us"},
	{name: "pool.level_changes", unit: "count"},
	{name: "stm.ro_txn_ns", unit: "ns"},
	{name: "stm.rw_txn_ns", unit: "ns"},
	{name: "stm.txn_self_ns_p50", unit: "ns"},
	{name: "stm.commits", unit: "count", higher: true},
	{name: "stm.aborts", unit: "count"},
	{name: "stm.commit_ratio", unit: "ratio", higher: true},
	{name: "stm.attempts_per_op", unit: "ratio"},
	{name: "stm.extensions", unit: "count"},
	{name: "stm.read_set_avg", unit: "count"},
	{name: "stm.write_set_avg", unit: "count"},
	{name: "container.body_ns_p50", unit: "ns"},
	{name: "container.hashmap_get_ns", unit: "ns"},
	{name: "container.hashmap_put_ns", unit: "ns"},
	{name: "container.rbtree_op_ns", unit: "ns"},
	{name: "blink.lookupfast_ns", unit: "ns"},
	{name: "blink.get_ns", unit: "ns"},
	{name: "blink.scanfast_ns_per_key", unit: "ns"},
	{name: "blink.put_ns", unit: "ns"},
	{name: "blink.put_allocs", unit: "allocs"},
	{name: "wal.begin_ns", unit: "ns"},
	{name: "wal.publish_ns", unit: "ns"},
	{name: "wal.wait_durable_us_p50", unit: "us"},
	{name: "wal.bytes_per_commit", unit: "B"},
	{name: "wal.durable_tax", unit: "ratio"},
	{name: "wal.cpu_tax_us_per_op", unit: "us"},
	{name: "wal.always_roundtrip_us_p50", unit: "us"},
	{name: "wal.recover_s", unit: "s"},
	{name: "wal.recovered_commits", unit: "count", higher: true},
	{name: "wal.acked_ratio", unit: "ratio", higher: true},
	{name: "core.rubic_next_ns", unit: "ns"},
	{name: "core.decisions", unit: "count", higher: true},
	{name: "core.mean_level", unit: "level"},
	{name: "colocate.p1_ops_s", unit: "ops/s", higher: true},
	{name: "colocate.p2_ops_s", unit: "ops/s", higher: true},
	{name: "colocate.oversub_ratio", unit: "ratio"},
	{name: "metrics.hist_record_ns", unit: "ns"},
	{name: "sim.rounds_per_s", unit: "1/s", higher: true},
	{name: "sim.nsbp_gain_vs_greedy", unit: "ratio", higher: true},
	{name: "trace.spans", unit: "count", higher: true},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.budget_ratio", unit: "ratio", higher: true},
	{name: "fairness_jain", unit: "ratio", higher: true},
	{name: "ops_per_level_s", unit: "ops/s/level", higher: true},
	{name: "op_p99_us", unit: "us"},
	{name: "allocs_per_op", unit: "allocs"},
	{name: "alloc_bytes_per_op", unit: "B"},
	{name: "gc_cycles_per_s", unit: "1/s"},
	{name: "throughput_interval_ops_s", unit: "ops/s", higher: true},
	{name: "op_p50_interval_us", unit: "us"},
	{name: "cpu_interval_us_per_op", unit: "us"},
	{name: "cores_busy", unit: "cores"},
}

// runTraced is the separate traced run. It splits the measured seconds
// over five phases: the layer probes, an untraced and a traced closed loop
// (their throughput difference is the tracing overhead), a steady open-loop
// phase through the real load.Server, and the span-recording replica of
// that server.
func runTraced(def *workloadDef, o options, walDir string, stdout io.Writer) (*result, error) {
	calibrateClock()
	var r report
	res := &result{}
	note := func(failed uint64, format string, args ...any) {
		res.Failed += failed
		fmt.Fprintf(stdout, "  problem: "+format+"\n", args...)
	}

	minDur := 20 * time.Millisecond
	if o.short {
		minDur = 2 * time.Millisecond
	}
	if err := runProbes(&r, o.seed, minDur, walDir); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	phase := time.Duration(o.seconds / 5 * float64(time.Second))
	cfg := loopConfig{seed: o.seed, warm: min(o.warmUp(), time.Second), walDir: walDir}
	cfg.windows = max(1, int(phase/window))
	loop := func(durable, traced bool) (*loopOutcome, error) {
		c := cfg
		c.traced = traced
		out, err := runClosedLoop(def.stacks, durable, c)
		if err != nil {
			return nil, err
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			fmt.Fprintf(stdout, "  problem: %s\n", p)
		}
		return out, nil
	}
	plain, err := loop(def.durable, false)
	if err != nil {
		return nil, err
	}
	traced, err := loop(def.durable, true)
	if err != nil {
		return nil, err
	}
	r.set("trace.overhead_pct", 100*(plain.throughput-traced.throughput)/plain.throughput)
	r.set("fairness_jain", plain.jain)
	r.set("ops_per_level_s", plain.opsPerLevel)
	r.set("op_p99_us", plain.p99us)
	r.set("allocs_per_op", traced.allocsPerOp)
	r.set("alloc_bytes_per_op", traced.allocBytesPerOp)
	r.set("gc_cycles_per_s", traced.gcPerSec)
	r.set("throughput_interval_ops_s", plain.intervalThroughput)
	r.set("op_p50_interval_us", plain.intervalP50us)
	r.set("cpu_interval_us_per_op", plain.intervalCPUUsPerOp)
	r.set("cores_busy", plain.coresBusy)

	// stm, pool, core, colocate: the traced loop's counters.
	var commits, roCommits, aborts, ext, reads, writes, ops float64
	var decisions, moves int
	for _, so := range traced.stacks {
		commits += float64(so.stats.Commits)
		roCommits += float64(so.stats.ReadOnlyCommits)
		aborts += float64(so.stats.Aborts)
		ext += float64(so.stats.Extensions)
		reads += float64(so.stats.ReadSetSum)
		writes += float64(so.stats.WriteSetSum)
		ops += float64(so.ops)
		decisions += so.decisions
		moves += so.levelMoves
	}
	r.set("stm.commits", commits)
	r.set("stm.aborts", aborts)
	r.set("stm.commit_ratio", ratio(commits, commits+aborts))
	r.set("stm.attempts_per_op", ratio(commits+aborts, ops))
	r.set("stm.extensions", ext)
	r.set("stm.read_set_avg", ratio(reads, commits))
	r.set("stm.write_set_avg", ratio(writes, commits-roCommits))
	r.set("pool.level_changes", float64(moves))
	r.set("core.decisions", float64(decisions))
	r.set("core.mean_level", traced.meanTotalLevel/float64(len(def.stacks)))
	r.set("colocate.oversub_ratio", traced.meanTotalLevel/float64(runtime.GOMAXPROCS(0)))
	r.set("colocate.p1_ops_s", traced.stacks[0].opsPerSec)
	r.set("colocate.p2_ops_s", 0)
	if len(traced.stacks) > 1 {
		r.set("colocate.p2_ops_s", traced.stacks[1].opsPerSec)
	}

	// wal: the timing sink of the traced loop, a restart from its log, and
	// the same transactions without a log for the tax.
	for _, name := range []string{"wal.begin_ns", "wal.publish_ns", "wal.wait_durable_us_p50", "wal.durable_tax",
		"wal.cpu_tax_us_per_op", "wal.recover_s", "wal.recovered_commits", "wal.acked_ratio"} {
		r.set(name, 0)
	}
	if def.durable {
		so := traced.stacks[0]
		r.set("wal.begin_ns", so.sink.begin.mean())
		r.set("wal.publish_ns", so.sink.publish.mean())
		r.set("wal.wait_durable_us_p50", float64(so.sink.wait.P50())/1e3)
		if so.wal != nil {
			r.set("wal.acked_ratio", ratio(float64(so.wal.DurableCSN), float64(so.wal.LastCSN)))
			took, recovered, err := recoverCheck(def.stacks[0], o.seed, so.walDir, so.wal)
			if err != nil {
				note(1, "restart: %v", err)
			}
			r.set("wal.recover_s", took.Seconds())
			r.set("wal.recovered_commits", float64(recovered))
		}
		volatile, err := loop(false, false)
		if err != nil {
			return nil, err
		}
		r.set("wal.durable_tax", volatile.throughput/plain.throughput)
		r.set("wal.cpu_tax_us_per_op", plain.cpuUsPerOp-volatile.cpuUsPerOp)
	}

	steady, err := runSteady(def, o.seed, phase, walDir)
	if err != nil {
		return nil, fmt.Errorf("steady phase: %w", err)
	}
	res.Attempted += steady.arrived
	if steady.failed > 0 {
		note(steady.failed, "steady phase: %s", steady.problem)
	}
	r.set("load.steady_p50_us", float64(steady.p50)/1e3)
	r.set("load.steady_p99_us", float64(steady.p99)/1e3)
	r.set("load.steady_cpu_us_per_op", steady.cpuUsPerOp)
	r.set("load.shed", float64(steady.shed))

	// The span-recording replica exists for the keyed single-stack bodies;
	// elsewhere its metrics read 0 like any other that does not apply.
	for _, name := range []string{"load.gen_late_us_p50", "load.gen_late_us_p99", "load.queue_wait_us_p50", "load.queue_wait_us_p99",
		"stm.txn_self_ns_p50", "container.body_ns_p50", "trace.spans", "trace.budget_ratio"} {
		r.set(name, 0)
	}
	var b budget
	spanFile := "none: " + def.name + " has no replica"
	if def.body != bodyNone {
		rep, err := runReplica(def, o.seed, phase, walDir)
		if err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
		res.Attempted += rep.arrived
		if n := rep.shed + rep.failures; n > 0 {
			note(n, "replica: %d requests shed, %d failed", rep.shed, rep.failures)
		}
		if rep.verifyErr != nil {
			note(1, "replica verification: %v", rep.verifyErr)
		}
		if rep.dropped > 0 {
			note(0, "replica: span buffer full, %d spans dropped", rep.dropped)
		}
		b = computeBudget(rep.spans)
		if b.requests == 0 {
			return nil, fmt.Errorf("replica served no requests")
		}
		r.set("load.gen_late_us_p50", nsQuantile(b.genLate, 0.5)/1e3)
		r.set("load.gen_late_us_p99", nsQuantile(b.genLate, 0.99)/1e3)
		r.set("load.queue_wait_us_p50", nsQuantile(b.queueWait, 0.5)/1e3)
		r.set("load.queue_wait_us_p99", nsQuantile(b.queueWait, 0.99)/1e3)
		r.set("stm.txn_self_ns_p50", nsQuantile(b.txnSelf, 0.5))
		r.set("container.body_ns_p50", nsQuantile(b.body, 0.5))
		r.set("trace.spans", float64(len(rep.spans)))
		r.set("trace.budget_ratio", b.ratio)
		spanFile = filepath.Join(o.outDir, "spans-"+def.name+".jsonl")
		if err := writeSpans(spanFile, rep.spans); err != nil {
			return nil, err
		}
	}

	fmt.Fprintf(stdout, "  traced run: probes, then %v phases — closed loop untraced %.6g ops/s, traced %.6g ops/s; open loop %d req/s steady and replica\n",
		phase, plain.throughput, traced.throughput, steadyRate)
	metrics, err := r.emit(stdout, perLayer)
	if err != nil {
		return nil, err
	}
	if def.body != bodyNone {
		printBudget(stdout, b, note)
	}
	fmt.Fprintf(stdout, "  spans: %s (clock read pair %.0f ns)\n", spanFile, clockNs)
	fmt.Fprintf(stdout, "  attempted=%d failed=%d verify=%s\n", res.Attempted, res.Failed, verdict(res.Failed))
	res.Correct = res.Failed == 0
	res.Metrics = metrics
	return res, nil
}

// printBudget prints the replica's latency budget and counts a failure
// when the layers do not sum to the time the request was in service.
func printBudget(stdout io.Writer, b budget, note func(uint64, string, ...any)) {
	fmt.Fprintf(stdout, "  latency budget of %d replica requests (mean %.2f us due → done, %.3f us popped → done), self time per request:\n",
		b.requests, b.requestMean/1e3, b.serviceMean/1e3)
	layers := make([]string, 0, len(b.layerSelf))
	for l := range b.layerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		what := l
		if l == benchLayer {
			what += " (unattributed: clock reads, span records)"
		}
		fmt.Fprintf(stdout, "    %-50s %10.3f us %6.1f%%\n", what, b.layerSelf[l]/1e3, 100*b.layerSelf[l]/b.requestMean)
	}
	if b.ratio < 0.9 || b.ratio > 1.1 {
		note(1, "trace.budget_ratio %.3f outside [0.9, 1.1]: the layers do not sum to the request's time in service", b.ratio)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// steadyOutcome is the result of the open-loop phase through load.Server.
type steadyOutcome struct {
	p50, p99      time.Duration
	cpuUsPerOp    float64
	arrived, shed uint64
	failed        uint64
	problem       string
}

// runSteady serves Poisson arrivals at steadyRate through the product's
// real open-loop server (one worker) on the workload's first stack.
func runSteady(def *workloadDef, seed int64, dur time.Duration, walDir string) (*steadyOutcome, error) {
	w, rt, _, err := def.stacks[0].build()
	if err != nil {
		return nil, err
	}
	arrival, err := load.NewPoisson(steadyRate, seed)
	if err != nil {
		return nil, err
	}
	cfg := load.Config{Workload: w, Arrival: arrival, QueueCap: steadyQueueCap, Workers: 1, Seed: seed}
	if k, ok := w.(keySpace); ok {
		if cfg.Keys, err = load.NewZipf(uint64(k.Keys()), load.DefaultTheta, seed); err != nil {
			return nil, err
		}
	}
	var cpu0 time.Duration
	var log *wal.Log
	cfg.AfterSetup = func() error {
		if def.durable {
			dir, err := os.MkdirTemp(walDir, "steady-")
			if err != nil {
				return err
			}
			if log, err = colocate.AttachDurability(w, rt, wal.Options{Dir: dir, Policy: wal.FsyncOS}); err != nil {
				return err
			}
		}
		cpu0 = cpuTime()
		return nil
	}
	srv, err := load.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	res, runErr := srv.Run(dur)
	cpu := cpuTime() - cpu0
	if log != nil {
		log.Close()
	}
	out := &steadyOutcome{p50: res.P50, p99: res.P99, arrived: res.Arrived, shed: res.Shed}
	if res.Completed > 0 {
		out.cpuUsPerOp = float64(cpu) / float64(time.Microsecond) / float64(res.Completed)
	}
	if runErr != nil {
		out.failed, out.problem = 1, runErr.Error()
	}
	if res.Shed > 0 {
		out.failed += res.Shed
		out.problem += fmt.Sprintf(" %d requests shed", res.Shed)
	}
	return out, nil
}
