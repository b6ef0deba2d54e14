package mproc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"sync"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/trace"
)

// ExecFunc constructs the command for the named agent child from its flag
// list. Tests substitute fake agents; the default re-executes the current
// binary with an "agent" subcommand.
type ExecFunc func(name string, args []string) (*exec.Cmd, error)

// RestartPolicy governs how the supervisor handles a crashed agent: restart
// it with exponential backoff and deterministic jitter, up to a bounded
// budget, with a circuit breaker that marks the stack failed once it
// crash-loops — while the surviving stacks keep running untouched.
type RestartPolicy struct {
	// MaxRestarts is the restart budget per child; 0 (the zero value)
	// disables restarts and fails the child on its first crash.
	MaxRestarts int
	// Backoff is the delay before the first restart (default 50 ms),
	// doubling on each consecutive restart.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2 s).
	MaxBackoff time.Duration
	// JitterSeed derives the deterministic jitter factor applied to every
	// delay; the same seed, child name and restart index always produce the
	// same delay, so chaos runs are reproducible.
	JitterSeed int64
	// BreakerThreshold trips the circuit breaker after this many consecutive
	// crash-loop attempts (an attempt that died without streaming telemetry,
	// or before MinUptime); 0 disables the breaker and lets the restart
	// budget govern alone.
	BreakerThreshold int
	// MinUptime classifies attempts: one that fails sooner than this counts
	// as a crash-loop even if it streamed telemetry (0: only telemetry-less
	// deaths count).
	MinUptime time.Duration
}

func (p *RestartPolicy) defaults() {
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
}

// Delay returns the deterministic backoff before the child's restart-th
// restart (1-based): exponential from Backoff, capped at MaxBackoff, scaled
// by a jitter factor in [0.5, 1.5) derived from JitterSeed, the child's name
// and the restart index. It is total and O(1): any policy and index give a
// delay in [0, 1.5·cap], saturating at the largest Duration, where cap is
// the effective MaxBackoff (the defaults apply to any non-positive bound).
func (p RestartPolicy) Delay(child string, restart int) time.Duration {
	p.defaults()
	if restart < 1 {
		restart = 1
	}
	base := p.MaxBackoff
	if n := uint(restart - 1); n < 63 && p.Backoff <= p.MaxBackoff>>n {
		base = p.Backoff << n
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, child)
	jitter := fault.Mix64(uint64(p.JitterSeed) ^ h.Sum64() ^ uint64(restart))
	// base·(512+j)/1024 exactly: the product needs at most 74 bits.
	hi, lo := bits.Mul64(uint64(base), 512+jitter%1024)
	return time.Duration(min(hi<<54|lo>>10, math.MaxInt64))
}

// Options configures a supervised run.
type Options struct {
	// Duration is the group's total run length (children with arrival
	// delays run for the remainder).
	Duration time.Duration
	// Period is the controllers' monitoring period (default 10 ms).
	Period time.Duration
	// Stack is the group's stack options; child i runs Stack.For(i), the
	// options goroutine mode gives its i-th stack. Engine defaults to tl2,
	// Processes to the number of specs. Stack.Chaos is threaded to every
	// agent with its child index and incarnation. With Stack.Durable on, every
	// child logs in its own directory under the root (colocate.WalDir),
	// stable across its incarnations, so a restarted agent recovers its
	// predecessor's committed prefix — and the supervisor asserts it did: a
	// replacement whose recovered prefix misses a commit the predecessor had
	// acked durable fails the child. Fsync defaults to always — the only
	// policy whose acks survive kill -9 by contract, so the only one the
	// exact-prefix assertion can hold restarted incarnations to.
	Stack colocate.StackOptions
	// GOMAXPROCS, when positive, caps every child's Go scheduler — the knob
	// for pinning each co-located process to a hardware-context budget.
	GOMAXPROCS int
	// StartupTimeout bounds the wait for a child's handshake (default 10s).
	StartupTimeout time.Duration
	// SetupTimeout bounds the wait between the handshake and the first
	// telemetry or result frame — the child's workload-population window
	// (default 120s; population of big workloads is slow on loaded hosts).
	SetupTimeout time.Duration
	// Grace is the extra time past a child's run length before the
	// supervisor starts tearing it down (default 5s).
	Grace time.Duration
	// KillGrace bounds the graceful-shutdown escalation: when a deadline
	// expires the supervisor first interrupts the child and only kills it
	// this much later (default 2s), so a healthy-but-slow agent can still
	// flush its result while a wedged one cannot hang teardown.
	KillGrace time.Duration
	// Restart is the per-child restart policy (zero value: fail fast, the
	// pre-chaos behavior).
	Restart RestartPolicy
	// FrameErrorBudget tolerates up to this many undecodable telemetry lines
	// per attempt — counted in ChildResult.DroppedFrames — before declaring
	// a protocol error (default 0: strict).
	FrameErrorBudget int
	// Exec overrides child command construction; nil re-executes the
	// current binary in agent mode.
	Exec ExecFunc
}

// ChildResult is one child's outcome, valid even when Err is set (the
// telemetry streamed before the failure is preserved as partial results).
type ChildResult struct {
	Name string
	// Hello is the child's handshake (nil if it never completed one).
	Hello *Hello
	// Levels and Throughputs are the multiplexed telemetry, timestamped on
	// the group's clock (arrival delays already added); across restarts the
	// attempts' streams are concatenated on that clock.
	Levels      *trace.Series
	Throughputs *trace.Series
	// Completed, Throughput and MeanLevel come from the result frame; until
	// one arrives they are zero.
	Completed  uint64
	Throughput float64
	MeanLevel  float64
	// Commits and Aborts are the last STM counters seen (result frame, or
	// the final telemetry frame for a child that died early).
	Commits uint64
	Aborts  uint64
	// Faults is the child pool's recovered-panic count (last seen).
	Faults uint64
	// Verified reports whether the child's workload invariants held.
	Verified bool
	// Restarts counts how many replacement processes the supervisor
	// launched for this child.
	Restarts int
	// Backoffs records the restart delays actually scheduled, in order;
	// with a fixed RestartPolicy seed the slice is identical across runs.
	Backoffs []time.Duration
	// BreakerTripped reports that the circuit breaker marked this stack
	// failed after consecutive crash-loops.
	BreakerTripped bool
	// DroppedFrames counts undecodable telemetry lines absorbed by the
	// frame-error budget.
	DroppedFrames int
	// Adapt is the last adaptive-policy state seen in telemetry (nil for
	// non-adaptive children).
	Adapt *core.AdaptiveState
	// Wal is the durable layer's last reported position (nil for
	// non-durable children). Across restarts it is the final incarnation's.
	Wal *WalState
	// WalAcked is the highest durable watermark seen across every
	// incarnation of this child — the prefix a replacement must recover.
	WalAcked uint64
	// WalRecoveries counts incarnations that recovered a non-empty prefix.
	WalRecoveries int
	// CtlRestored reports that at least one replacement incarnation was
	// handed its predecessor's preserved tuning state; AdaptResumed that a
	// replacement's first telemetry confirmed the restored adaptive
	// candidate was actually running.
	CtlRestored  bool
	AdaptResumed bool
	// Err is the child's failure cause: crash, timeout, protocol violation
	// or agent-side error.
	Err error
}

// Run launches one agent child per spec, multiplexes their telemetry, waits
// for all of them (bounded by per-child deadlines — Run never hangs and
// reaps every child it starts), and returns per-child results in spec order.
// The returned error is the first failing child's cause, with the child
// named; results are returned alongside it, partial for the failed children.
// Failures are per-child: a crashed, wedged or crash-looping child never
// stops its siblings, and with a RestartPolicy installed it is relaunched
// within its backoff budget.
func Run(specs []colocate.StackSpec, opt Options) ([]ChildResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mproc: no children")
	}
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("mproc: duration must be positive")
	}
	if opt.Period <= 0 {
		opt.Period = core.DefaultPeriod
	}
	if opt.Stack.Engine == "" {
		opt.Stack.Engine = "tl2"
	}
	if opt.Stack.Processes <= 0 {
		opt.Stack.Processes = len(specs)
	}
	if opt.Stack.Durable.Fsync == "" {
		opt.Stack.Durable.Fsync = "always"
	}
	if opt.StartupTimeout <= 0 {
		opt.StartupTimeout = 10 * time.Second
	}
	if opt.SetupTimeout <= 0 {
		opt.SetupTimeout = 120 * time.Second
	}
	if opt.Grace <= 0 {
		opt.Grace = 5 * time.Second
	}
	if opt.KillGrace <= 0 {
		opt.KillGrace = 2 * time.Second
	}
	opt.Restart.defaults()
	if opt.Exec == nil {
		opt.Exec = selfExec
	}
	// Every child is assembled here first, exactly as its agent will assemble
	// it: a spec, option or log flag the agent would refuse fails the run by
	// name before any child is launched, not as a crash loop after.
	for i, spec := range specs {
		p, err := opt.agent(spec, i, opt.Duration).Proc()
		if err == nil {
			_, err = colocate.NewGroup([]colocate.Proc{p}, opt.Period)
		}
		if err != nil {
			return nil, fmt.Errorf("mproc: child %s: %w", spec.Name(i), err)
		}
	}

	results := make([]ChildResult, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runChild(specs[i], i, opt, &results[i])
		}(i)
	}
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("mproc: child %s: %w", results[i].Name, results[i].Err)
		}
	}
	return results, nil
}

// agent is what child i's agent runs for the given active duration (total
// minus arrival delay and earlier incarnations' measured time).
func (opt Options) agent(spec colocate.StackSpec, i int, active time.Duration) AgentConfig {
	return AgentConfig{Spec: spec, Stack: opt.Stack.For(i), Duration: active, Period: opt.Period, GOMAXPROCS: opt.GOMAXPROCS}
}

// selfExec re-executes the current binary in agent mode, the production
// path: supervisor and agent are one binary, so the protocol versions match
// by construction.
func selfExec(_ string, args []string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mproc: locating own binary: %w", err)
	}
	return exec.Command(self, append([]string{"agent"}, args...)...), nil
}

// killer tears a child process down at most once, remembering why; the
// reason distinguishes supervisor-initiated teardowns (timeouts, protocol
// errors) from spontaneous child deaths when the exit status is interpreted.
// Teardown escalates: shutdown sends an interrupt and arms a bounded kill
// timer, so a healthy agent can flush its result frame while a wedged one
// is reaped after the grace period; kill is immediate for children whose
// stream is already garbage.
type killer struct {
	mu     sync.Mutex
	proc   *os.Process
	grace  time.Duration
	reason string
	killed bool
	esc    *time.Timer
}

// shutdown requests a graceful stop: interrupt now, kill after the grace
// period. The first teardown reason wins.
func (k *killer) shutdown(reason string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.reason != "" {
		return
	}
	k.reason = reason
	if err := k.proc.Signal(os.Interrupt); err != nil {
		// Interrupt delivery unsupported or the process is already gone:
		// skip straight to the kill.
		k.killed = true
		_ = k.proc.Kill()
		return
	}
	k.esc = time.AfterFunc(k.grace, func() {
		k.mu.Lock()
		defer k.mu.Unlock()
		if !k.killed {
			k.killed = true
			_ = k.proc.Kill()
		}
	})
}

// kill skips the escalation: the child's stream is already corrupt, there
// is nothing worth letting it flush.
func (k *killer) kill(reason string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.reason != "" {
		return
	}
	k.reason = reason
	k.killed = true
	_ = k.proc.Kill()
}

// finish cancels any pending escalation once the child has been reaped.
func (k *killer) finish() {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.esc != nil {
		k.esc.Stop()
	}
}

func (k *killer) why() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.reason
}

// watchdog is the supervisor's liveness clock for one child: a single timer
// re-armed at each protocol milestone (launch → hello → first telemetry →
// result), so every stage of the child's life is bounded without charging
// the run deadline for unboundedly long workload population.
type watchdog struct {
	k  *killer
	mu sync.Mutex
	t  *time.Timer
}

func (w *watchdog) arm(d time.Duration, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t != nil {
		w.t.Stop()
	}
	w.t = time.AfterFunc(d, func() { w.k.shutdown(reason) })
}

func (w *watchdog) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.t != nil {
		w.t.Stop()
	}
}

// tailBuffer captures the last part of a child's stderr for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 2048

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = t.buf[len(t.buf)-tailMax:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// attemptOutcome summarizes one incarnation of a child for the restart loop.
type attemptOutcome struct {
	err          error
	gotTelemetry bool
	uptime       time.Duration
	// measured is how much of the run the incarnation actually measured (its
	// last telemetry timestamp): an agent's duration clock starts after
	// workload population, so the restart loop charges measured time — not
	// wall time, which would bill every incarnation's setup against the run.
	measured time.Duration
	ctl      *core.TuningState
	adapt    *core.AdaptiveState
	// firstAdapt is the first telemetry frame's adaptive state: for a
	// restarted incarnation it reveals whether the restored candidate was
	// actually running when the replacement came up.
	firstAdapt *core.AdaptiveState
	dropped    int
	// acked is the highest durable watermark this incarnation reported;
	// walSeen flags that at least one frame carried WAL state (the first one
	// is where the exact-prefix assertion runs).
	acked   uint64
	walSeen bool
}

// runChild supervises one child slot from launch to final outcome: it runs
// the agent, and — when a RestartPolicy is installed — relaunches crashed
// incarnations with exponentially backed-off, deterministically jittered
// delays, preserving the tuner's CUBIC state and the adaptive policy's
// state across restarts, until the child succeeds, the budget is exhausted,
// the circuit breaker trips on a crash-loop, or no meaningful run time
// remains.
func runChild(spec colocate.StackSpec, idx int, opt Options, res *ChildResult) {
	res.Name = spec.Name(idx)
	res.Levels = trace.NewSeries(res.Name + "/level")
	res.Throughputs = trace.NewSeries(res.Name + "/throughput")
	if spec.ArrivalDelay > 0 {
		time.Sleep(spec.ArrivalDelay)
	}
	active := opt.Duration - spec.ArrivalDelay
	if active <= 0 {
		res.Err = errors.New("arrives after the run ends")
		return
	}

	var preserved *core.TuningState
	var preservedAdapt *core.AdaptiveState
	var preservedAcked uint64  // highest durable watermark across incarnations
	var consumed time.Duration // measurement time burned by prior incarnations
	crashLoops := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 && preserved != nil {
			res.CtlRestored = true
		}
		cfg := opt.agent(spec, idx, active-consumed)
		cfg.Stack.Incarnation, cfg.Restore, cfg.AdaptRestore = attempt, preserved, preservedAdapt
		out := runAttempt(cfg, preservedAcked, opt, res)
		consumed += out.measured
		if out.ctl != nil {
			preserved = out.ctl
		}
		if out.acked > preservedAcked {
			preservedAcked = out.acked
		}
		res.WalAcked = preservedAcked
		if attempt > 0 && preservedAdapt != nil && out.firstAdapt != nil &&
			out.firstAdapt.Candidate == preservedAdapt.Candidate {
			res.AdaptResumed = true
		}
		if out.adapt != nil {
			preservedAdapt = out.adapt
			res.Adapt = out.adapt
		}
		res.DroppedFrames += out.dropped
		if out.err == nil {
			res.Err = nil
			return
		}
		res.Err = out.err

		if out.gotTelemetry && (opt.Restart.MinUptime <= 0 || out.uptime >= opt.Restart.MinUptime) {
			crashLoops = 0
		} else {
			crashLoops++
		}
		if opt.Restart.BreakerThreshold > 0 && crashLoops >= opt.Restart.BreakerThreshold {
			res.BreakerTripped = true
			res.Err = fmt.Errorf("circuit breaker open after %d consecutive crash-loops: %w", crashLoops, out.err)
			return
		}
		if attempt >= opt.Restart.MaxRestarts {
			if opt.Restart.MaxRestarts > 0 {
				res.Err = fmt.Errorf("restart budget exhausted after %d attempts: %w", attempt+1, out.err)
			}
			return
		}
		if active-consumed < opt.Period {
			// Not enough measurement budget left for a replacement to observe
			// even one tick; keep the failure rather than launching a doomed
			// incarnation.
			return
		}
		delay := opt.Restart.Delay(res.Name, attempt+1)
		res.Backoffs = append(res.Backoffs, delay)
		time.Sleep(delay)
		res.Restarts++
	}
}

// runAttempt drives one agent incarnation from launch to reaped exit,
// merging its telemetry into res. Its cardinal rule is boundedness: a
// watchdog covers every stage of the child's life (silent child, runaway
// child, stuck pipe) with an interrupt→kill escalation, so the frame loop
// may simply read until EOF and Wait afterwards.
func runAttempt(cfg AgentConfig, preservedAcked uint64, opt Options, res *ChildResult) attemptOutcome {
	var out attemptOutcome
	active, attempt := cfg.Duration, cfg.Stack.Incarnation
	if active <= 0 {
		out.err = errors.New("no run time left")
		return out
	}
	cmd, err := opt.Exec(res.Name, AgentArgs(cfg))
	if err != nil {
		out.err = err
		return out
	}
	stderr := &tailBuffer{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		out.err = err
		return out
	}
	if err := cmd.Start(); err != nil {
		out.err = fmt.Errorf("launch: %w", err)
		return out
	}
	started := time.Now()

	k := &killer{proc: cmd.Process, grace: opt.KillGrace}
	wd := &watchdog{k: k}
	wd.arm(opt.StartupTimeout, "no handshake within startup timeout")
	defer wd.stop()

	// Telemetry timestamps are child-relative; offset re-bases them onto the
	// group clock, including time burned by earlier incarnations.
	offset := opt.Duration.Seconds() - active.Seconds()

	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	gotHello, gotResult := false, false
	var protoErr error
	// noteWal folds one frame's WAL position into the attempt. The first
	// WAL-bearing frame of a replacement incarnation carries the assertion
	// at the heart of the durability contract: the recovered prefix must
	// cover every commit any predecessor acked durable. (The reverse bound —
	// no unacked commit surfacing — cannot be checked from here: commits
	// between the predecessor's last frame and its death are invisible to
	// the supervisor; the wal package's replay tests own that half.)
	noteWal := func(ws *WalState) error {
		if ws == nil {
			return nil
		}
		w := *ws
		res.Wal = &w
		if w.Acked > out.acked {
			out.acked = w.Acked
		}
		if !out.walSeen {
			out.walSeen = true
			if w.Recovered > 0 {
				res.WalRecoveries++
			}
			if w.Recovered < preservedAcked {
				return fmt.Errorf("incarnation %d recovered prefix %d, predecessor acked %d durable: acked commits lost",
					attempt, w.Recovered, preservedAcked)
			}
		}
		return nil
	}
frames:
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		f, err := Decode(line)
		if err != nil {
			if out.dropped < opt.FrameErrorBudget {
				// The frame-error budget absorbs occasional corrupt,
				// truncated or skewed lines instead of failing the child on
				// the first one.
				out.dropped++
				continue
			}
			protoErr = err
			break frames
		}
		switch f.Type {
		case FrameHello:
			if gotHello {
				protoErr = errors.New("mproc: duplicate handshake")
				break frames
			}
			gotHello = true
			wd.arm(opt.SetupTimeout, "no telemetry within setup timeout")
			h := *f.Hello
			res.Hello = &h
		case FrameTelemetry:
			if !gotHello {
				protoErr = errors.New("mproc: telemetry before handshake")
				break frames
			}
			if !out.gotTelemetry {
				out.gotTelemetry = true
				wd.arm(active+opt.Grace, "run deadline exceeded")
			}
			t := f.Telemetry
			out.measured = time.Duration(t.T * float64(time.Second))
			res.Levels.Add(t.T+offset, float64(t.Level))
			res.Throughputs.Add(t.T+offset, t.Tput)
			res.Commits, res.Aborts = t.Commits, t.Aborts
			res.Faults = t.Faults
			if t.Ctl != nil {
				ctl := *t.Ctl
				out.ctl = &ctl
			}
			if t.Adapt != nil {
				adapt := *t.Adapt
				out.adapt = &adapt
				if out.firstAdapt == nil {
					out.firstAdapt = &adapt
				}
			}
			if err := noteWal(t.Wal); err != nil {
				protoErr = err
				break frames
			}
		case FrameResult:
			if !gotHello {
				protoErr = errors.New("mproc: result before handshake")
				break frames
			}
			gotResult = true
			wd.arm(opt.Grace, "lingered after result frame")
			r := f.Result
			res.Completed = r.Completed
			res.Throughput = r.Tput
			res.MeanLevel = r.MeanLevel
			res.Commits, res.Aborts = r.Commits, r.Aborts
			res.Faults = r.Faults
			res.Verified = r.Verified
			if err := noteWal(r.Wal); err != nil {
				protoErr = err
				break frames
			}
			if r.Err != "" {
				protoErr = fmt.Errorf("agent reported: %s", r.Err)
				break frames
			}
			if r.Interrupted {
				protoErr = errors.New("agent interrupted before completion")
				break frames
			}
		}
	}
	if protoErr != nil {
		k.kill("protocol error")
	} else if err := sc.Err(); err != nil {
		protoErr = fmt.Errorf("reading telemetry: %w", err)
		k.kill("protocol error")
	}
	// Drain the remainder so the child never blocks on a full pipe while
	// exiting; the deadline teardown bounds this too.
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	wd.stop()
	k.finish()
	out.uptime = time.Since(started)

	// Resolve the attempt's cause, most specific first.
	switch reason := k.why(); {
	case protoErr != nil:
		out.err = protoErr
	case reason != "":
		out.err = errors.New(reason)
	case werr != nil:
		out.err = fmt.Errorf("agent exited abnormally: %w", werr)
	case !gotResult:
		out.err = errors.New("agent exited without a result frame")
	}
	if out.err != nil {
		if tail := stderr.String(); tail != "" {
			out.err = fmt.Errorf("%w (stderr: %s)", out.err, tail)
		}
	}
	return out
}
