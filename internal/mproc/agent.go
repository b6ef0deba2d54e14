package mproc

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/fault"
)

// AgentConfig describes the single stack an agent process runs.
type AgentConfig struct {
	// Spec and Stack describe the stack exactly as goroutine mode does — the
	// agent hands them to colocate.StackSpec.Proc unchanged, as the group's
	// stack Stack.Child (its name, seed, log directory and chaos schedule
	// derive from it). Stack.Incarnation is the supervisor's restart count:
	// restarted incarnations draw different chaos schedules. Stack.Durable
	// attaches a write-ahead log under Stack.Durable.Root, the group's root,
	// in the directory goroutine mode would use — stable across the child's
	// incarnations, so a restarted agent recovers its predecessor's
	// committed prefix; the agent streams WalState in its telemetry and
	// flushes and closes the log before the result frame.
	Spec  colocate.StackSpec
	Stack colocate.StackOptions
	// Duration is the measurement length; Period the controller period.
	Duration time.Duration
	Period   time.Duration
	// GOMAXPROCS, when positive, caps the child's Go scheduler.
	GOMAXPROCS int
	// Restore and AdaptRestore, when non-nil, are the states the controller
	// and the adaptive policy resume from — the supervisor passes the crashed
	// predecessor's last published ones, so CUBIC growth restarts from its
	// preserved anchors and the policy on its settled candidate.
	Restore      *core.TuningState
	AdaptRestore *core.AdaptiveState
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

// agentFlags declares the agent's command line over cfg. AgentArgs encodes
// through the same declarations, so a flag the agent parses cannot be missing
// from what the supervisor sends.
func agentFlags(cfg *AgentConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Var(specFlag{&cfg.Spec}, "spec", "the stack, workload:policy[@delay][/key=value]...")
	cfg.Stack.Register(fs)
	fs.DurationVar(&cfg.Duration, "duration", 2*time.Second, "run duration")
	fs.DurationVar(&cfg.Period, "period", core.DefaultPeriod, "controller period")
	fs.IntVar(&cfg.GOMAXPROCS, "gomaxprocs", 0, "GOMAXPROCS for this agent (0 leaves the default)")
	fs.IntVar(&cfg.Stack.Processes, "processes", 1, "number of co-located processes")
	fs.StringVar(&cfg.Stack.Chaos, "chaos", "", "fault scenario, scenario@seed (empty: none)")
	fs.IntVar(&cfg.Stack.Child, "chaos-child", 0, "this stack's index in the group (its name, seed, log and chaos schedule)")
	fs.IntVar(&cfg.Stack.Incarnation, "incarnation", 0, "restart count (0 = first launch)")
	fs.Var(jsonFlag[core.TuningState]{&cfg.Restore}, "restore", "tuning state to resume from (JSON)")
	fs.Var(jsonFlag[core.AdaptiveState]{&cfg.AdaptRestore}, "adapt-restore", "adaptive policy state to resume from (JSON)")
	return fs
}

// parseAgentFlags decodes an agent command line.
func parseAgentFlags(args []string) (AgentConfig, error) {
	var cfg AgentConfig
	return cfg, agentFlags(&cfg).Parse(args)
}

// AgentArgs is the agent command line that parses back to cfg: every flag
// agentFlags declares whose value differs from its default.
func AgentArgs(cfg AgentConfig) []string {
	var bound AgentConfig
	fs := agentFlags(&bound)
	bound = cfg // the flags read their values through pointers into bound
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// specFlag is a flag holding one stack spec in its String form.
type specFlag struct{ spec *colocate.StackSpec }

func (f specFlag) String() string {
	if f.spec == nil {
		return ""
	}
	return f.spec.String()
}

func (f specFlag) Set(s string) error {
	specs, err := colocate.ParseSpecs(s)
	if err == nil && len(specs) != 1 {
		err = fmt.Errorf("mproc: -spec %q names %d stacks, want one", s, len(specs))
	}
	if err == nil {
		*f.spec = specs[0]
	}
	return err
}

// jsonFlag is a flag holding an optional *T as JSON; the empty default is nil.
type jsonFlag[T any] struct{ p **T }

func (f jsonFlag[T]) String() string {
	if f.p == nil || *f.p == nil {
		return ""
	}
	b, _ := json.Marshal(*f.p) // the states are plain structs of scalars
	return string(b)
}

func (f jsonFlag[T]) Set(s string) error {
	v := new(T)
	if err := json.Unmarshal([]byte(s), v); err != nil {
		return err
	}
	*f.p = v
	return nil
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
		return fmt.Errorf("mproc: agent needs a -spec")
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
// and adaptive-policy state. It refuses, naming the spec, the stacks an
// agent cannot run: an open-loop one (the agent has only the closed-loop
// drive) and one without a single STM runtime to report commits from.
func (cfg AgentConfig) Proc() (colocate.Proc, error) {
	if cfg.Spec.QPS > 0 {
		return colocate.Proc{}, fmt.Errorf("mproc: %s is an open-loop stack; process mode has no open-loop drive", cfg.Spec)
	}
	p, err := cfg.Spec.Proc(cfg.Spec.Name(cfg.Stack.Child), cfg.Stack)
	if err != nil {
		return p, err
	}
	if p.Runtime == nil {
		return p, fmt.Errorf("mproc: %s has no single STM runtime to report commits from", cfg.Spec)
	}
	// Non-resumable policies (the baselines) simply start fresh.
	if r, ok := p.Controller.(core.Resumable); ok && cfg.Restore != nil {
		r.RestoreState(*cfg.Restore)
	}
	if a, ok := p.Adapter.(*colocate.AdaptiveStack); ok && cfg.AdaptRestore != nil {
		a.Restore(*cfg.AdaptRestore)
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
