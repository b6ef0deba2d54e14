package mproc

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/fault"
)

// AgentConfig describes the single stack an agent process runs.
type AgentConfig struct {
	// Spec and Stack describe the stack exactly as goroutine mode does — the
	// agent hands them to colocate.StackSpec.Proc unchanged, except that
	// Stack.Durable is filled from Durable below. Stack.Child is the child's
	// index in the group and Stack.Incarnation the supervisor's restart
	// count for it: restarted incarnations draw different chaos schedules.
	Spec  colocate.StackSpec
	Stack colocate.StackOptions
	// Duration is the measurement length; Period the controller period.
	Duration time.Duration
	Period   time.Duration
	// GOMAXPROCS, when positive, caps the child's Go scheduler — the knob
	// for pinning each co-located process to a hardware-context budget.
	GOMAXPROCS int
	// Restore, when non-empty, is a "level,wmax,epoch" tuning state the
	// controller resumes from — the supervisor passes the crashed
	// predecessor's last published state so CUBIC growth restarts from its
	// preserved anchors instead of the floor.
	Restore string
	// AdaptRestore, when non-empty, is the JSON core.AdaptiveState the
	// adaptive policy resumes from — the supervisor passes the crashed
	// predecessor's last published state, mirroring Restore.
	AdaptRestore string
	// Durable attaches a write-ahead log to the stack: the agent opens (or,
	// on restart, recovers) the log before taking traffic, streams WalState
	// in its telemetry, and flushes and closes the log before the result
	// frame. The workload must implement wal.DurableState. Durable.Root is
	// the stack's own log directory, not a parent: the supervisor derives it
	// (colocate.WalDir) and keeps it stable across a child's incarnations so
	// a restarted agent recovers its predecessor's committed prefix.
	Durable colocate.DurableFlags
}

// AgentMain parses agent-mode command-line flags and runs the agent,
// streaming protocol frames to out. It is the body of the "agent"
// subcommand of cmd/rubic-colocate.
func AgentMain(args []string, out io.Writer) error {
	cfg, err := parseAgentFlags(args)
	if err != nil {
		return err
	}
	return RunAgent(cfg, out)
}

// parseAgentFlags decodes the flag list AgentArgs (plus the supervisor's
// per-attempt additions) encodes.
func parseAgentFlags(args []string) (AgentConfig, error) {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var cfg AgentConfig
	fs.StringVar(&cfg.Spec.Workload, "workload", "", "workload name")
	fs.StringVar(&cfg.Spec.Policy, "policy", "rubic", "controller policy (or greedy)")
	fs.IntVar(&cfg.Stack.Pool, "pool", runtime.NumCPU(), "worker pool size")
	fs.Int64Var(&cfg.Stack.Seed, "seed", 1, "random seed")
	fs.DurationVar(&cfg.Duration, "duration", 2*time.Second, "run duration")
	fs.DurationVar(&cfg.Period, "period", core.DefaultPeriod, "controller period")
	fs.StringVar(&cfg.Stack.Engine, "engine", "tl2", "stm engine: tl2 or norec")
	fs.IntVar(&cfg.GOMAXPROCS, "gomaxprocs", 0, "GOMAXPROCS for this agent (0 leaves the default)")
	fs.IntVar(&cfg.Stack.Processes, "processes", 1, "number of co-located processes")
	fs.StringVar(&cfg.Stack.Chaos, "chaos", "", "fault scenario, scenario@seed (empty: none)")
	fs.IntVar(&cfg.Stack.Child, "chaos-child", 0, "this stack's index in the chaos derivation")
	fs.IntVar(&cfg.Stack.Incarnation, "incarnation", 0, "restart count (0 = first launch)")
	fs.StringVar(&cfg.Restore, "restore", "", "tuning state to resume from, level,wmax,epoch")
	fs.StringVar(&cfg.Stack.Adaptive, "adaptive", "", "adaptive engine/CM candidates, e.g. tl2/backoff+norec/greedy (empty: static)")
	fs.IntVar(&cfg.Stack.Window, "adapt-window", 0, "adaptive scoring window, epochs (0: the stack default)")
	fs.StringVar(&cfg.AdaptRestore, "adapt-restore", "", "adaptive policy state to resume from (JSON)")
	cfg.Durable.Register(fs)
	return cfg, fs.Parse(args)
}

// parseRestore decodes the -restore flag's "level,wmax,epoch" payload.
func parseRestore(s string) (core.TuningState, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return core.TuningState{}, fmt.Errorf("mproc: restore state %q: want level,wmax,epoch", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return core.TuningState{}, fmt.Errorf("mproc: restore state %q: %v", s, err)
		}
		vals[i] = v
	}
	return core.TuningState{Level: vals[0], WMax: vals[1], Epoch: vals[2]}, nil
}

// RunAgent runs one co-located stack to completion, streaming a handshake,
// periodic telemetry and a final result frame to out. A returned error (also
// reported in the result frame when one can still be sent) makes the agent
// process exit nonzero, which the supervisor surfaces as the child's cause.
// A supervisor interrupt (graceful-shutdown escalation) stops the run early:
// the agent tears its stack down, verifies, and reports Interrupted in its
// result instead of dying mid-write.
func RunAgent(cfg AgentConfig, out io.Writer) error {
	if cfg.Spec.Workload == "" {
		return fmt.Errorf("mproc: agent needs a workload")
	}
	if cfg.Stack.Pool < 1 {
		return fmt.Errorf("mproc: agent pool size %d < 1", cfg.Stack.Pool)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("mproc: agent duration must be positive")
	}
	if cfg.Period <= 0 {
		cfg.Period = core.DefaultPeriod
	}
	if cfg.GOMAXPROCS > 0 {
		runtime.GOMAXPROCS(cfg.GOMAXPROCS)
	}
	// The handshake goes out before the stack is assembled: it only echoes
	// configuration, and workload population can take arbitrarily long — the
	// supervisor's startup timeout must not charge the agent for it.
	enc := NewEncoder(out)
	if err := enc.Encode(HelloFrame(Hello{
		Workload:   cfg.Spec.Workload,
		Policy:     cfg.Spec.Policy,
		Pool:       cfg.Stack.Pool,
		Seed:       cfg.Stack.Seed,
		PeriodNS:   int64(cfg.Period),
		DurationNS: int64(cfg.Duration),
		Engine:     cfg.Stack.Engine,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PID:        os.Getpid(),
	})); err != nil {
		return fmt.Errorf("mproc: handshake: %w", err)
	}

	p, err := cfg.Proc()
	if err != nil {
		return err
	}
	// Injected hard-crash points (a torn batch write, a kill mid-handoff) are
	// real crashes here, like agent.crash — the supervisor restarts us and
	// recovery proves the prefix.
	if p.Durable != nil {
		p.Durable.OnCrash = crash
	}
	if adaptive, ok := p.Adapter.(*colocate.AdaptiveStack); ok {
		adaptive.OnHandoffCrash = crash
	}

	// An interrupt from the supervisor's graceful-shutdown escalation ends
	// the measurement early instead of killing the process mid-write.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)

	ran, interrupted := false, false
	res, err := colocate.RunStack(p, cfg.Period, func(live func() colocate.Result) {
		ran = true
		stopTelemetry := make(chan struct{})
		telemetryDone := make(chan struct{})
		go func() {
			defer close(telemetryDone)
			streamTelemetry(enc, cfg.Period, p, live, stopTelemetry)
		}()
		select {
		case <-time.After(cfg.Duration):
		case <-interrupt:
			interrupted = true
		}
		close(stopTelemetry)
		<-telemetryDone
	})
	if !ran {
		return err
	}
	// The stack is stopped, its log flushed and closed — so the Acked the
	// result frame carries is the log's final durable watermark. Losing
	// durability is an explicit flag on the result, not an agent failure: the
	// degradation contract kept the pool serving.
	verifyErr := err
	if res.Wal != nil && res.Wal.Lost {
		fmt.Fprintf(os.Stderr, "mproc: %s lost durability: %v\n", p.Name, res.Wal.LostErr)
	}
	stats := p.Runtime.Stats()
	final := Result{
		Completed:   res.Completed,
		Tput:        res.Throughput,
		MeanLevel:   res.MeanLevel,
		Commits:     stats.Commits,
		Aborts:      stats.Aborts,
		Faults:      res.Faults,
		Verified:    verifyErr == nil,
		Interrupted: interrupted,
		Wal:         walState(res.Wal),
	}
	if verifyErr != nil {
		final.Err = verifyErr.Error()
	}
	if err := enc.Encode(ResultFrame(final)); err != nil {
		return fmt.Errorf("mproc: result: %w", err)
	}
	if verifyErr != nil {
		return fmt.Errorf("mproc: %w", verifyErr)
	}
	if interrupted {
		return fmt.Errorf("mproc: %s interrupted before completing its run", p.Name)
	}
	return nil
}

// crash is what an injected hard-crash point does to an agent: no teardown,
// no result frame, nonzero exit.
func crash() { os.Exit(3) }

// streamTelemetry samples the stack and the STM counters at the controller
// period and streams one frame per sample until stop closes (or the
// supervisor hangs up). It runs alongside the tuner but shares nothing with
// it beyond atomic counter reads. The chaos points for process-level faults
// live here: each telemetry tick is one occurrence, so a scenario's From
// indexes are tick numbers.
func streamTelemetry(enc *Encoder, period time.Duration, p colocate.Proc, live func() colocate.Result, stop <-chan struct{}) {
	inj := p.Faults
	adaptive, _ := p.Adapter.(*colocate.AdaptiveStack)
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	started := time.Now()
	prevCount, prevTime := live().Completed, started
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			if inj.Fire(fault.AgentCrash) {
				crash()
			}
			if inj.Fire(fault.AgentHang) {
				// A wedged agent: telemetry stops, interrupts are ignored,
				// and the main goroutine will block waiting for this one —
				// only the supervisor's kill escalation ends the process.
				signal.Ignore(os.Interrupt)
				select {}
			}
			if fired, occ := inj.FireN(fault.TelemetrySlow); fired {
				time.Sleep(period * time.Duration(1+inj.Payload(fault.TelemetrySlow, occ)%3))
			}
			snap := live()
			elapsed := now.Sub(prevTime).Seconds()
			if elapsed <= 0 {
				continue
			}
			tput := float64(snap.Completed-prevCount) / elapsed
			if adaptive != nil && p.Controller == nil {
				// No tuning loop to drive the adapter (greedy policy): the
				// telemetry tick is the epoch boundary instead.
				adaptive.Epoch(core.Observation{Tput: tput})
			}
			stats := p.Runtime.Stats()
			tele := Telemetry{
				T:       now.Sub(started).Seconds(),
				Level:   snap.Level,
				Tput:    tput,
				Commits: stats.Commits,
				Aborts:  stats.Aborts,
				Faults:  snap.Faults,
				Ctl:     snap.Ctl,
				Wal:     walState(snap.Wal),
			}
			if adaptive != nil {
				st := adaptive.State()
				tele.Adapt = &st
			}
			prevCount, prevTime = snap.Completed, now
			var encErr error
			if fired, occ := inj.FireN(fault.TelemetryCorrupt); fired {
				encErr = enc.WriteRaw(fmt.Sprintf("@@corrupt-telemetry:%016x@@\n", inj.Payload(fault.TelemetryCorrupt, occ)))
			} else if inj.Fire(fault.TelemetryTruncate) {
				encErr = enc.WriteRaw(`{"v":1,"type":"telemetry","telemetry":{"t":` + "\n")
			} else if inj.Fire(fault.TelemetrySkew) {
				encErr = enc.WriteRaw(`{"v":99,"type":"telemetry","telemetry":{"t":0,"level":1,"tput":0,"commits":0,"aborts":0}}` + "\n")
			} else {
				encErr = enc.Encode(TelemetryFrame(tele))
			}
			if encErr != nil {
				// The supervisor hung up; keep running so the workload
				// still verifies, but stop streaming.
				return
			}
		}
	}
}

// Proc assembles the agent's stack through the function goroutine mode uses
// (colocate.StackSpec.Proc), then resumes a crashed predecessor's controller
// and adaptive-policy state.
func (cfg AgentConfig) Proc() (colocate.Proc, error) {
	var err error
	if cfg.Stack.Durable, err = cfg.Durable.Options(""); err != nil {
		return colocate.Proc{}, err
	}
	p, err := cfg.Spec.Proc(cfg.Spec.Workload, cfg.Stack)
	if err != nil {
		return p, err
	}
	if cfg.Restore != "" && p.Controller != nil {
		st, err := parseRestore(cfg.Restore)
		if err != nil {
			return p, err
		}
		// Non-resumable policies (the baselines) simply start fresh.
		if r, ok := p.Controller.(core.Resumable); ok {
			r.RestoreState(st)
		}
	}
	if cfg.AdaptRestore != "" && p.Adapter != nil {
		var st core.AdaptiveState
		if err := json.Unmarshal([]byte(cfg.AdaptRestore), &st); err != nil {
			return p, fmt.Errorf("mproc: adapt-restore state %q: %w", cfg.AdaptRestore, err)
		}
		p.Adapter.(*colocate.AdaptiveStack).Restore(st)
	}
	return p, nil
}

// walState maps a stack's log position onto the wire (nil without a log).
func walState(wr *colocate.WalResult) *WalState {
	if wr == nil {
		return nil
	}
	return &WalState{Acked: wr.DurableCSN, Last: wr.LastCSN, Recovered: wr.Recovered.LastCSN, Lost: wr.Lost}
}
