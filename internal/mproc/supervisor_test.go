package mproc

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"testing"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
)

// TestHelperAgent is not a test: it is the body of the fake (and real) agent
// children the supervisor tests spawn. The parent re-executes its own test
// binary with -test.run=^TestHelperAgent$ and RUBIC_MPROC_HELPER selecting a
// behavior, so every child is a genuine OS process. Always exits via os.Exit
// so the testing framework's PASS output never pollutes the protocol stream.
func TestHelperAgent(t *testing.T) {
	mode := os.Getenv("RUBIC_MPROC_HELPER")
	if mode == "" {
		return // normal test run, not a child
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	enc := NewEncoder(os.Stdout)
	hello := HelloFrame(Hello{Workload: "fake", Policy: "fake", Pool: 2, PID: os.Getpid()})
	switch mode {
	case "agent":
		// The real thing: run the production agent entry point.
		if err := AgentMain(args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "good":
		enc.Encode(hello)
		for i := 0; i < 3; i++ {
			enc.Encode(TelemetryFrame(Telemetry{T: float64(i) * 0.01, Level: 1, Tput: 100, Commits: uint64(i) * 10}))
		}
		enc.Encode(ResultFrame(Result{Completed: 300, Tput: 100, MeanLevel: 1, Commits: 30, Verified: true}))
	case "crash":
		// Dies mid-run after streaming some telemetry: no result frame,
		// nonzero exit.
		enc.Encode(hello)
		enc.Encode(TelemetryFrame(Telemetry{T: 0.01, Level: 2, Tput: 50}))
		enc.Encode(TelemetryFrame(Telemetry{T: 0.02, Level: 2, Tput: 55}))
		fmt.Fprintln(os.Stderr, "fake agent: simulated crash")
		os.Exit(3)
	case "truncated":
		// Emits a frame cut off mid-token and exits "successfully".
		enc.Encode(hello)
		fmt.Print(`{"v":1,"type":"telemetry","telem`)
	case "badversion":
		enc.Encode(hello)
		fmt.Println(`{"v":99,"type":"telemetry","telemetry":{"t":0.01,"level":1,"tput":1,"commits":0,"aborts":0}}`)
	case "silent":
		time.Sleep(10 * time.Second)
	case "flaky":
		// Crashes its first two incarnations after publishing resumable tuning
		// state; the third incarnation succeeds and echoes the state the
		// supervisor restored into it (as MeanLevel), proving preservation.
		cfg, err := parseAgentFlags(args)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		enc.Encode(hello)
		if inc := cfg.Stack.Incarnation; inc < 2 {
			enc.Encode(TelemetryFrame(Telemetry{T: 0.01, Level: 3, Tput: 50,
				Ctl: &core.TuningState{Level: 7, WMax: 9 + float64(inc), Epoch: 1.5}}))
			fmt.Fprintln(os.Stderr, "fake agent: flaky crash")
			os.Exit(3)
		}
		res := Result{Completed: 100, Tput: 10, MeanLevel: 1, Verified: true}
		if cfg.Restore != nil {
			res.MeanLevel = cfg.Restore.WMax
		}
		enc.Encode(ResultFrame(res))
	case "crashloop":
		// Dies instantly on every incarnation, before any telemetry: the
		// canonical crash-loop the circuit breaker exists for.
		enc.Encode(hello)
		fmt.Fprintln(os.Stderr, "fake agent: crash loop")
		os.Exit(3)
	case "corrupty":
		// One garbage line amid otherwise healthy frames.
		enc.Encode(hello)
		fmt.Println("@@garbage, not a frame@@")
		enc.Encode(TelemetryFrame(Telemetry{T: 0.01, Level: 1, Tput: 100}))
		enc.Encode(ResultFrame(Result{Completed: 50, Tput: 100, MeanLevel: 1, Verified: true}))
	case "wedged":
		// Ignores interrupts and never finishes: only the supervisor's kill
		// escalation can end it.
		enc.Encode(hello)
		enc.Encode(TelemetryFrame(Telemetry{T: 0.01, Level: 1, Tput: 100}))
		signal.Ignore(os.Interrupt)
		time.Sleep(30 * time.Second)
	case "slowpoke":
		// Healthy but slow: overstays the deadline, yet flushes a final result
		// when interrupted — the graceful half of the shutdown escalation.
		enc.Encode(hello)
		enc.Encode(TelemetryFrame(Telemetry{T: 0.01, Level: 1, Tput: 100}))
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		select {
		case <-ch:
			enc.Encode(ResultFrame(Result{Completed: 42, Interrupted: true}))
			os.Exit(1)
		case <-time.After(30 * time.Second):
		}
	}
	os.Exit(0)
}

// fakeExec reroutes each child to this test binary's TestHelperAgent with a
// per-child-name behavior (children without an entry get the default mode).
func fakeExec(defaultMode string, modes map[string]string) ExecFunc {
	return func(name string, args []string) (*exec.Cmd, error) {
		mode, ok := modes[name]
		if !ok {
			mode = defaultMode
		}
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperAgent$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "RUBIC_MPROC_HELPER="+mode)
		return cmd, nil
	}
}

// A and B are the names Run gives twoChildren's stacks.
const A, B = "P1-rbtree-ro-rubic", "P2-rbtree-ro-rubic"

func twoChildren() []colocate.StackSpec {
	return []colocate.StackSpec{{Workload: "rbtree-ro", Policy: "rubic"}, {Workload: "rbtree-ro", Policy: "rubic"}}
}

// pool2 is a run's stack options: two workers per stack, the rest default.
var pool2 = colocate.StackOptions{StackFlags: colocate.StackFlags{Pool: 2}}

func TestSupervisorFakeAgents(t *testing.T) {
	results, err := Run(twoChildren(), Options{
		Stack:    pool2,
		Duration: 100 * time.Millisecond,
		Exec:     fakeExec("good", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		if r.Hello == nil || r.Hello.PID == 0 {
			t.Errorf("%s: no handshake", r.Name)
		}
		if r.Levels.Len() != 3 {
			t.Errorf("%s: %d telemetry samples, want 3", r.Name, r.Levels.Len())
		}
		if r.Completed != 300 || !r.Verified {
			t.Errorf("%s: result not recorded: %+v", r.Name, r)
		}
	}
}

func TestSupervisorChildCrashMidRun(t *testing.T) {
	results, err := Run(twoChildren(), Options{
		Stack:    pool2,
		Duration: 100 * time.Millisecond,
		Exec:     fakeExec("good", map[string]string{B: "crash"}),
	})
	if err == nil {
		t.Fatal("crash went unreported")
	}
	if !strings.Contains(err.Error(), B) || !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("error does not name the crashed child and cause: %v", err)
	}
	// The survivor's results are intact.
	if results[0].Err != nil || !results[0].Verified || results[0].Completed != 300 {
		t.Errorf("survivor damaged: %+v", results[0])
	}
	// The crashed child keeps its partial telemetry and a cause.
	if results[1].Err == nil {
		t.Error("crashed child has no error")
	}
	if results[1].Levels.Len() != 2 {
		t.Errorf("crashed child streamed %d samples before dying, want 2", results[1].Levels.Len())
	}
	if !strings.Contains(results[1].Err.Error(), "simulated crash") {
		t.Errorf("child stderr not surfaced: %v", results[1].Err)
	}
}

func TestSupervisorTruncatedFrame(t *testing.T) {
	results, err := Run(twoChildren(), Options{
		Stack:    pool2,
		Duration: 100 * time.Millisecond,
		Exec:     fakeExec("good", map[string]string{A: "truncated"}),
	})
	if err == nil {
		t.Fatal("truncated frame went unreported")
	}
	if !strings.Contains(err.Error(), A) || !strings.Contains(err.Error(), "malformed frame") {
		t.Errorf("error does not name the child and the malformed frame: %v", err)
	}
	if results[1].Err != nil {
		t.Errorf("survivor damaged: %v", results[1].Err)
	}
}

func TestSupervisorVersionMismatch(t *testing.T) {
	_, err := Run(twoChildren()[:1], Options{
		Stack:    pool2,
		Duration: 100 * time.Millisecond,
		Exec:     fakeExec("badversion", nil),
	})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch went unreported: %v", err)
	}
}

func TestSupervisorStartupTimeout(t *testing.T) {
	start := time.Now()
	_, err := Run(twoChildren()[:1], Options{
		Stack:          pool2,
		Duration:       100 * time.Millisecond,
		StartupTimeout: 200 * time.Millisecond,
		Grace:          100 * time.Millisecond,
		Exec:           fakeExec("silent", nil),
	})
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("silent child went unreported: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("supervisor hung %v on a silent child", elapsed)
	}
}

// TestSupervisorValidation: everything an agent would refuse fails the run
// before any child is launched — a configuration error is not a crash loop —
// naming the child when one is at fault.
func TestSupervisorValidation(t *testing.T) {
	durable := func(root string) colocate.StackOptions {
		o := pool2
		o.Durable = colocate.DurableFlags{On: true, Root: root}
		return o
	}
	withStack := func(mutate func(*colocate.StackOptions)) colocate.StackOptions {
		o := pool2
		mutate(&o)
		return o
	}
	cases := []struct {
		name, specs, want string
		stack             colocate.StackOptions
		duration          time.Duration
	}{
		{"no children", "", "no children", pool2, time.Second},
		{"zero duration", "bank:rubic", "duration", pool2, 0},
		{"bad pool", "bank:rubic", "P1-bank-rubic: colocate: pool size 0", colocate.StackOptions{}, time.Second},
		{"unknown workload", "bank:rubic,nope:rubic", "P2-nope-rubic", pool2, time.Second},
		{"unknown policy", "bank:nope", "P1-bank-nope: core: unknown policy", pool2, time.Second},
		{"unknown engine", "bank:rubic", "unknown stm engine", withStack(func(o *colocate.StackOptions) { o.Engine = "quantum" }), time.Second},
		{"unknown scenario", "bank:rubic", "earthquake", withStack(func(o *colocate.StackOptions) { o.Chaos = "earthquake@1" }), time.Second},
		{"bad candidate", "bank:rubic/adaptive=tl2:nope", "contention manager", pool2, time.Second},
		{"log without a root", "bank:rubic", "-wal-dir", durable(""), time.Second},
		{"log on a workload without durable state", "rbtree:rubic", "no durable state", durable(t.TempDir()), time.Second},
		{"open-loop stack", "bank:rubic,kv/qps=100", "child P2-kv/poisson: mproc: kv:greedy/qps=100/arrival=poisson is an open-loop stack", pool2, time.Second},
		{"no single runtime", "shardedkv:rubic", "no single STM runtime", pool2, time.Second},
	}
	for _, tc := range cases {
		var specs []colocate.StackSpec
		if tc.specs != "" {
			var err error
			if specs, err = colocate.ParseSpecs(tc.specs); err != nil {
				t.Fatal(err)
			}
		}
		launched := 0
		good := fakeExec("good", nil)
		_, err := Run(specs, Options{Duration: tc.duration, Stack: tc.stack, Exec: func(name string, args []string) (*exec.Cmd, error) {
			launched++
			return good(name, args)
		}})
		if err == nil || !strings.Contains(err.Error(), tc.want) || launched != 0 {
			t.Errorf("%s: err = %v after %d launches, want %q before any", tc.name, err, launched, tc.want)
		}
	}
}

func TestSupervisorLateArrivalRejected(t *testing.T) {
	specs := twoChildren()
	specs[1].ArrivalDelay = time.Second
	results, err := Run(specs, Options{
		Stack:    pool2,
		Duration: 50 * time.Millisecond,
		Exec:     fakeExec("good", nil),
	})
	if err == nil || !strings.Contains(err.Error(), B) {
		t.Fatalf("late arrival not attributed to B: %v", err)
	}
	if results[0].Err != nil {
		t.Errorf("on-time child damaged: %v", results[0].Err)
	}
}

// TestRestartPolicyDelayDeterministic pins the backoff schedule's contract:
// exponential growth capped at MaxBackoff, jitter within [0.5, 1.5) of the
// base, and full determinism for a fixed (seed, child, restart) triple.
func TestRestartPolicyDelayDeterministic(t *testing.T) {
	p := RestartPolicy{MaxRestarts: 5, Backoff: 10 * time.Millisecond,
		MaxBackoff: 80 * time.Millisecond, JitterSeed: 42}
	for r := 1; r <= 8; r++ {
		a, b := p.Delay("child", r), p.Delay("child", r)
		if a != b {
			t.Fatalf("restart %d: nondeterministic delay %v vs %v", r, a, b)
		}
		base := 10 * time.Millisecond << (r - 1)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if a < base/2 || a >= base+base/2 {
			t.Fatalf("restart %d: delay %v outside [%v, %v)", r, a, base/2, base+base/2)
		}
	}
}

// TestRestartPolicyDelayTotal pins Delay over the corners of its domain:
// the schedule TestRestartPolicyDelayDeterministic checks keeps its exact
// values, a cap of math.MaxInt64 saturates instead of overflowing, an index
// of math.MaxInt returns at once, and non-positive bounds take the defaults.
func TestRestartPolicyDelayTotal(t *testing.T) {
	ms := time.Millisecond
	pinned := RestartPolicy{MaxRestarts: 5, Backoff: 10 * ms, MaxBackoff: 80 * ms, JitterSeed: 42}
	huge := RestartPolicy{MaxRestarts: 1, Backoff: time.Second, MaxBackoff: math.MaxInt64}
	for _, tc := range []struct {
		p       RestartPolicy
		restart int
		lo, hi  time.Duration // inclusive bounds; lo == hi pins the value
	}{
		{pinned, 1, 9873046, 9873046},
		{pinned, 2, 23593750, 23593750},
		{pinned, 3, 39843750, 39843750},
		{pinned, 4, 81484375, 81484375},
		{pinned, 5, 41718750, 41718750},
		{pinned, 6, 81250000, 81250000},
		{pinned, 7, 119062500, 119062500},
		{pinned, 8, 112500000, 112500000},
		{huge, 1, 1015625000, 1015625000},
		{huge, 30, time.Second << 29 / 2, time.Second<<29 + time.Second<<28},
		{huge, 40, math.MaxInt64 / 2, math.MaxInt64},
		{huge, 63, math.MaxInt64 / 2, math.MaxInt64},
		{huge, 64, math.MaxInt64 / 2, math.MaxInt64},
		{huge, math.MaxInt, math.MaxInt64 / 2, math.MaxInt64},
		{RestartPolicy{Backoff: 3 * time.Second, MaxBackoff: time.Second}, 1, 500 * ms, 1500 * ms},
		{RestartPolicy{Backoff: -1, MaxBackoff: -1}, math.MinInt, 25 * ms, 75 * ms},
		{RestartPolicy{}, math.MaxInt, time.Second, 3 * time.Second},
	} {
		if d := tc.p.Delay("child", tc.restart); d < tc.lo || d > tc.hi {
			t.Errorf("%+v restart %d: delay %v outside [%v, %v]", tc.p, tc.restart, d, tc.lo, tc.hi)
		}
	}
}

// FuzzRestartPolicyDelay: for any policy, child and index, Delay returns a
// delay in [0, 1.5·cap], cap being the effective MaxBackoff, in constant time
// (the fuzzer's per-input timeout catches a loop over the index).
func FuzzRestartPolicyDelay(f *testing.F) {
	f.Add(int64(time.Second), int64(math.MaxInt64), int64(0), math.MaxInt, "child")
	f.Add(int64(10*time.Millisecond), int64(80*time.Millisecond), int64(42), 3, "P1-bank-rubic")
	f.Add(int64(-1), int64(0), int64(-7), math.MinInt, "")
	f.Fuzz(func(t *testing.T, backoff, maxBackoff, seed int64, restart int, child string) {
		p := RestartPolicy{Backoff: time.Duration(backoff), MaxBackoff: time.Duration(maxBackoff), JitterSeed: seed}
		d := p.Delay(child, restart)
		limit := time.Duration(maxBackoff)
		if limit <= 0 {
			limit = 2 * time.Second
		}
		if limit <= math.MaxInt64/3*2 {
			limit += limit / 2
		} else {
			limit = math.MaxInt64
		}
		if d < 0 || d > limit {
			t.Fatalf("%+v restart %d: delay %v outside [0, %v]", p, restart, d, limit)
		}
	})
}

// TestSupervisorRestartRecovers is the recovery half of the crash-loop
// coverage: a child that crashes twice (streaming telemetry first) is
// relaunched within the restart budget, its backoff delays follow the
// deterministic schedule, the preserved tuning state reaches the replacement
// process, and the sibling is untouched throughout.
func TestSupervisorRestartRecovers(t *testing.T) {
	opt := Options{
		Stack:    pool2,
		Duration: 5 * time.Second,
		Restart: RestartPolicy{MaxRestarts: 3, Backoff: 5 * time.Millisecond,
			MaxBackoff: 20 * time.Millisecond, JitterSeed: 7},
		Exec: fakeExec("good", map[string]string{A: "flaky"}),
	}
	results, err := Run(twoChildren(), opt)
	if err != nil {
		t.Fatal(err)
	}
	a := results[0]
	if a.Restarts != 2 {
		t.Fatalf("flaky child restarted %d times, want 2", a.Restarts)
	}
	if len(a.Backoffs) != 2 {
		t.Fatalf("recorded backoffs %v, want 2 entries", a.Backoffs)
	}
	for i, d := range a.Backoffs {
		if want := opt.Restart.Delay(A, i+1); d != want {
			t.Errorf("backoff %d = %v, want the deterministic %v", i, d, want)
		}
	}
	// Incarnation 1's last published state had WMax 10; the supervisor must
	// have handed exactly that to incarnation 2 via -restore.
	if a.MeanLevel != 10 {
		t.Errorf("restored tuning state did not reach the replacement: echoed wMax %v, want 10", a.MeanLevel)
	}
	// Telemetry from all incarnations is concatenated on the group clock.
	if a.Levels.Len() != 2 {
		t.Errorf("crashed incarnations' telemetry lost: %d samples, want 2", a.Levels.Len())
	}
	if b := results[1]; b.Err != nil || b.Completed != 300 || b.Restarts != 0 {
		t.Errorf("sibling damaged by the restarts: %+v", b)
	}
}

// TestSupervisorBreakerTrips is the breaker half of the crash-loop coverage:
// a child dying instantly on every incarnation trips the circuit breaker
// after the configured number of consecutive crash-loops — long before the
// restart budget — while the sibling stack runs to completion.
func TestSupervisorBreakerTrips(t *testing.T) {
	results, err := Run(twoChildren(), Options{
		Stack:    pool2,
		Duration: 5 * time.Second,
		Restart: RestartPolicy{MaxRestarts: 10, Backoff: 2 * time.Millisecond,
			MaxBackoff: 8 * time.Millisecond, JitterSeed: 3, BreakerThreshold: 3},
		Exec: fakeExec("good", map[string]string{B: "crashloop"}),
	})
	if err == nil || !strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("breaker trip unreported: %v", err)
	}
	b := results[1]
	if !b.BreakerTripped {
		t.Error("BreakerTripped not set")
	}
	if b.Restarts != 2 {
		t.Errorf("breaker tripped after %d restarts, want 2 (3 consecutive crash-loops)", b.Restarts)
	}
	if a := results[0]; a.Err != nil || a.Completed != 300 || a.Levels.Len() != 3 {
		t.Errorf("sibling stopped ticking during the crash-loop: %+v", a)
	}
}

func TestSupervisorRestartBudgetExhausted(t *testing.T) {
	results, err := Run(twoChildren()[:1], Options{
		Stack:    pool2,
		Duration: 5 * time.Second,
		Restart:  RestartPolicy{MaxRestarts: 2, Backoff: 2 * time.Millisecond, JitterSeed: 1},
		Exec:     fakeExec("crashloop", nil),
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget exhausted") {
		t.Fatalf("budget exhaustion unreported: %v", err)
	}
	if results[0].Restarts != 2 {
		t.Errorf("restarted %d times, want the full budget of 2", results[0].Restarts)
	}
}

// TestSupervisorFrameErrorBudget: a garbage line inside the budget is dropped
// and counted instead of failing the child.
func TestSupervisorFrameErrorBudget(t *testing.T) {
	results, err := Run(twoChildren()[:1], Options{
		Stack:            pool2,
		Duration:         time.Second,
		FrameErrorBudget: 2,
		Exec:             fakeExec("corrupty", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].DroppedFrames != 1 {
		t.Errorf("dropped frames %d, want 1", results[0].DroppedFrames)
	}
	if results[0].Completed != 50 || !results[0].Verified {
		t.Errorf("result lost around the dropped frame: %+v", results[0])
	}
}

// TestSupervisorWedgedChildBoundedTeardown is the escalation's hard half: a
// child that ignores interrupts must still be reaped within Grace + KillGrace
// — a wedged agent can no longer hang the run teardown indefinitely.
func TestSupervisorWedgedChildBoundedTeardown(t *testing.T) {
	start := time.Now()
	_, err := Run(twoChildren()[:1], Options{
		Stack:     pool2,
		Duration:  100 * time.Millisecond,
		Grace:     100 * time.Millisecond,
		KillGrace: 200 * time.Millisecond,
		Exec:      fakeExec("wedged", nil),
	})
	if err == nil || !strings.Contains(err.Error(), "run deadline") {
		t.Fatalf("wedged child unreported: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("teardown of a wedged child took %v", elapsed)
	}
}

// TestSupervisorInterruptLetsAgentFlush is the escalation's graceful half: a
// slow-but-responsive child gets the interrupt first and manages to flush a
// final (partial, Interrupted) result before the kill would land.
func TestSupervisorInterruptLetsAgentFlush(t *testing.T) {
	results, err := Run(twoChildren()[:1], Options{
		Stack:     pool2,
		Duration:  100 * time.Millisecond,
		Grace:     100 * time.Millisecond,
		KillGrace: 5 * time.Second,
		Exec:      fakeExec("slowpoke", nil),
	})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted child unreported: %v", err)
	}
	if results[0].Completed != 42 {
		t.Errorf("partial result not flushed on interrupt: %+v", results[0])
	}
}

// TestSmokeTwoRealAgents is the process-mode smoke test: two genuine child
// OS processes each run the full production agent (STM runtime, worker pool,
// RUBIC controller) for ~200 ms and the supervisor must collect both
// results and exit cleanly.
func TestSmokeTwoRealAgents(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning smoke test in -short mode")
	}
	results, err := Run([]colocate.StackSpec{
		{Workload: "rbtree-ro", Policy: "rubic"},
		{Workload: "bank", Policy: "ebs"},
	}, Options{
		Stack:    pool2,
		Duration: 200 * time.Millisecond,
		Period:   5 * time.Millisecond,
		Exec:     fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Hello == nil {
			t.Fatalf("%s: no handshake", r.Name)
		}
		if r.Hello.PID == os.Getpid() {
			t.Errorf("%s ran in-process (pid %d), want a child", r.Name, r.Hello.PID)
		}
		if r.Completed == 0 {
			t.Errorf("%s completed nothing", r.Name)
		}
		if !r.Verified {
			t.Errorf("%s did not verify", r.Name)
		}
		if r.Levels.Len() == 0 {
			t.Errorf("%s streamed no telemetry", r.Name)
		}
	}
}
