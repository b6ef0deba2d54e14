// Command rubic-colocate runs several real application stacks side by side —
// the paper's co-located multi-process scenario on the actual STM runtime.
// Each stack gets its own STM, workload, worker pool and controller; they
// share only the CPU.
//
// Two execution modes are available:
//
//   - -mode=goroutine (default) runs every stack in one OS process, each in
//     its own goroutine group — quick and portable.
//
//   - -mode=proc re-executes this binary once per stack ("agent" mode): each
//     stack becomes a real child OS process with its own Go runtime and
//     scheduler, streaming telemetry back to the supervisor over a pipe.
//     This is the paper's actual setup (section 4: independent processes,
//     kernel-level CPU contention, no communication between controllers).
//
//     rubic-colocate -procs rbtree-ro:rubic,rbtree-ro:rubic@2s -duration 4s
//     rubic-colocate -mode=proc -procs rbtree-ro:rubic,rbtree-ro:rubic -duration 2s
//     rubic-colocate -mode=proc -gomaxprocs 4 -procs vacation:rubic,intruder:ebs
//
// Every stack is a colocate.StackSpec, workload:policy[@delay][/key=value]...,
// the grammar rubic-serve takes: adaptive= hot-swaps a stack's engine and
// contention manager, and in goroutine mode qps= serves a stack open-loop
// beside closed-loop ones (a batch job beside a service):
//
//	rubic-colocate -procs rbtree-ro:rubic/adaptive=tl2:backoff+norec:greedy
//	rubic-colocate -procs rbtree:rubic,kv/qps=300/slo=250ms
//
// A seeded chaos scenario can be layered over either mode:
//
//	rubic-colocate -mode=proc -chaos crashloop@7 -procs bank:rubic,bank:rubic
//	rubic-colocate -mode=proc -chaos mixed@11 -restarts 3 -duration 4s
//
// Scenarios (crashloop, stall, corrupt, mixed — see internal/fault) inject a
// deterministic fault schedule derived from the seed; in proc mode the
// supervisor restarts crashed agents with backoff and preserves their
// controller state across the restart.
//
// Workloads: see internal/stamp/workloads (rbtree, rbtree-ro, vacation,
// vacation-low, vacation-high, intruder, stmbench7, bank, genome, kmeans,
// labyrinth, ssca2) and internal/load (kv, ordered, shardedkv). Policies:
// rubic, ebs, f2c2, aiad, aimd, hillclimb, equalshare, profile; "greedy"
// pins all workers.
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

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/metrics"
	"rubic/internal/mproc"
	"rubic/internal/trace"
)

// agentExec lets tests reroute agent children to a helper binary; nil uses
// the supervisor's default self-exec.
var agentExec mproc.ExecFunc

// cliConfig is the parsed command line for one rubic-colocate run.
type cliConfig struct {
	mode       string
	procs      string
	duration   time.Duration
	period     time.Duration
	gomaxprocs int
	// chaos names the fault scenario ("scenario@seed"); empty runs clean.
	chaos string
	// restarts is the per-child restart budget in proc mode when a chaos
	// scenario (or a flaky machine) crashes an agent.
	restarts int
	plot     bool
	// stack is -algo, -pool, -seed and the -durable/-wal-dir/-fsync group,
	// shared with rubic-serve and the agent.
	stack colocate.StackFlags
}

func main() {
	// The hidden "agent" subcommand is how the supervisor re-executes this
	// binary as one co-located child process.
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		if err := mproc.AgentMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rubic-colocate agent:", err)
			os.Exit(1)
		}
		return
	}
	var cfg cliConfig
	register(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rubic-colocate:", err)
		os.Exit(1)
	}
}

// register declares the command line over cfg.
func register(fs *flag.FlagSet, cfg *cliConfig) {
	fs.StringVar(&cfg.mode, "mode", "goroutine", "execution mode: goroutine (in-process) or proc (real child OS processes)")
	fs.StringVar(&cfg.procs, "procs", "rbtree-ro:rubic,rbtree-ro:rubic", "comma-separated stacks, workload:policy[@delay][/key=value]... (qps= serves a stack open-loop, goroutine mode only)")
	fs.DurationVar(&cfg.duration, "duration", 2*time.Second, "run duration")
	fs.DurationVar(&cfg.period, "period", core.DefaultPeriod, "controller period")
	fs.IntVar(&cfg.gomaxprocs, "gomaxprocs", 0, "per-child GOMAXPROCS in proc mode (0 leaves the Go default)")
	fs.StringVar(&cfg.chaos, "chaos", "", "seeded fault scenario: crashloop|stall|corrupt|mixed[@seed]")
	fs.IntVar(&cfg.restarts, "restarts", 2, "proc mode: restart budget per crashed agent")
	fs.BoolVar(&cfg.plot, "plot", true, "render the level traces")
	cfg.stack.Register(fs)
}

func run(cfg cliConfig) error {
	specs, err := colocate.ParseSpecs(cfg.procs)
	if err != nil {
		return err
	}
	// Both modes assemble every stack before any runs: goroutine mode to run
	// it, proc mode in the supervisor, before it launches a child.
	switch cfg.mode {
	case "goroutine":
		stacks, err := goroutineProcs(cfg, specs)
		if err != nil {
			return err
		}
		return runGroup(cfg, stacks, os.Stdout)
	case "proc":
		return runProc(cfg, specs)
	}
	return fmt.Errorf("unknown mode %q (want goroutine or proc)", cfg.mode)
}

// options are the group's stack options; stack i runs options.For(i) in
// either mode.
func (cfg cliConfig) options(stacks int) colocate.StackOptions {
	return colocate.StackOptions{StackFlags: cfg.stack, Processes: stacks, Chaos: cfg.chaos}
}

// goroutineProcs assembles the stacks for goroutine mode through the function
// the process-mode agent uses (colocate.StackSpec.Proc). There are no agent
// processes here, so only the pool, controller and log injection points of a
// chaos scenario apply, and the incarnation is always 0: nothing restarts
// in-process.
func goroutineProcs(cfg cliConfig, specs []colocate.StackSpec) ([]colocate.Proc, error) {
	opts := cfg.options(len(specs))
	var stacks []colocate.Proc
	for i, s := range specs {
		p, err := s.Proc(s.Name(i), opts.For(i))
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, p)
	}
	return stacks, nil
}

// runGroup runs the assembled stacks and reports. A run that failed after its
// stacks started (verification, a failed or wedged sibling) still came back
// with every finished stack's result: the table and the log outcomes are
// printed before the error returns, as proc mode does.
func runGroup(cfg cliConfig, stacks []colocate.Proc, out io.Writer) error {
	group, err := colocate.NewGroup(stacks, cfg.period)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "co-locating %d stacks in goroutine mode for %v (pool %d each, engine %s, %d CPUs)...\n",
		len(stacks), cfg.duration, cfg.stack.Pool, cfg.stack.Engine, runtime.NumCPU())
	if cfg.chaos != "" {
		fmt.Fprintf(out, "chaos scenario %s armed\n", cfg.chaos)
	}
	results, runErr := group.Run(cfg.duration)
	if results == nil {
		return runErr
	}

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nstack\tcompleted\tthroughput/s\tmean-level\tfaults")
	set := &trace.Set{}
	var tputs []float64
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1f\t%d\n", r.Name, r.Completed, r.Throughput, r.MeanLevel, r.Faults)
		tputs = append(tputs, r.Throughput)
		if r.Levels != nil {
			set.Add(r.Levels)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "Jain fairness (throughput): %.3f\n", metrics.Jain(tputs))
	for _, r := range results {
		if r.Wal != nil {
			fmt.Fprintf(out, "%s: %s\n", r.Name, r.Wal)
		}
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintln(out, "all workload invariants verified")
	plotLevels(set, cfg.plot)
	return nil
}

// procOptions describes the run to the process-mode supervisor.
func procOptions(cfg cliConfig, stacks int) mproc.Options {
	opt := mproc.Options{
		Duration:   cfg.duration,
		Period:     cfg.period,
		Stack:      cfg.options(stacks),
		GOMAXPROCS: cfg.gomaxprocs,
		Exec:       agentExec,
	}
	if cfg.restarts > 0 {
		// The restart budget covers any crashed agent — a chaos scenario's
		// scripted exits and a genuine kill -9 alike.
		opt.Restart = mproc.RestartPolicy{
			MaxRestarts:      cfg.restarts,
			JitterSeed:       cfg.stack.Seed,
			BreakerThreshold: 3,
		}
	}
	if cfg.chaos != "" {
		// The corrupt scenario injects up to four bad lines per incarnation;
		// give the budget headroom so chaos exercises recovery, not failure.
		opt.FrameErrorBudget = 8
	}
	return opt
}

func runProc(cfg cliConfig, specs []colocate.StackSpec) error {
	fmt.Printf("co-locating %d real OS processes for %v (pool %d each, engine %s, %d CPUs, gomaxprocs %d)...\n",
		len(specs), cfg.duration, cfg.stack.Pool, cfg.stack.Engine, runtime.NumCPU(), cfg.gomaxprocs)
	if cfg.chaos != "" {
		fmt.Printf("chaos scenario %s armed (restart budget %d)\n", cfg.chaos, cfg.restarts)
	}
	results, err := mproc.Run(specs, procOptions(cfg, len(specs)))
	if results == nil {
		return err // refused before any child launched
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nprocess\tpid\tcompleted\tthroughput/s\tmean-level\tcommits\taborts\trestarts\tfaults\tstatus")
	set := &trace.Set{}
	var tputs, levels []float64
	for _, r := range results {
		pid, status := "-", "ok"
		if r.Hello != nil {
			pid = strconv.Itoa(r.Hello.PID)
		}
		if r.Err != nil {
			status = "FAILED"
			if r.BreakerTripped {
				status = "BREAKER"
			}
		} else if !r.Verified {
			status = "unverified"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%.1f\t%d\t%d\t%d\t%d\t%s\n",
			r.Name, pid, r.Completed, r.Throughput, r.MeanLevel, r.Commits, r.Aborts, r.Restarts, r.Faults, status)
		if r.Err == nil {
			tputs = append(tputs, r.Throughput)
			levels = append(levels, r.MeanLevel)
		}
		if r.Levels != nil && r.Levels.Len() > 0 {
			set.Add(r.Levels)
		}
	}
	if ferr := tw.Flush(); ferr != nil {
		return ferr
	}
	if len(tputs) > 0 {
		fmt.Printf("Jain fairness (throughput): %.3f  mean level: %.1f\n",
			metrics.Jain(tputs), metrics.Mean(levels))
	}
	for _, r := range results {
		if r.Wal == nil {
			continue
		}
		status := "durable"
		if r.Wal.Lost {
			status = "durability LOST"
		}
		fmt.Printf("%s: wal acked %d/%d commits, recovered prefix %d (%d recoveries across %d restarts) — %s\n",
			r.Name, r.Wal.Acked, r.Wal.Last, r.Wal.Recovered, r.WalRecoveries, r.Restarts, status)
	}
	plotLevels(set, cfg.plot)
	if err != nil {
		return err
	}
	fmt.Println("all workload invariants verified")
	return nil
}

func plotLevels(set *trace.Set, plot bool) {
	if plot && len(set.Series) > 0 {
		fmt.Print("\n" + trace.Plot(set, trace.PlotOptions{
			Title:  "active workers over time",
			Height: 10,
		}))
	}
}
