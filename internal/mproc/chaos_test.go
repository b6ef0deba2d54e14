package mproc

import (
	"fmt"
	"testing"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/fault"
)

// chaosChildren are the real-agent stacks the seeded soaks run: two genuine
// child processes, each with the full STM runtime, worker pool and RUBIC
// controller. The soaks run in -short mode too — `make chaos` depends on it.
// Both stacks use the bank workload: its population is cheap, and restart
// scenarios pay one population per incarnation (rbtree's 64K-element setup
// would dominate the soak's wall time under -race).
func chaosChildren() []colocate.StackSpec {
	return []colocate.StackSpec{{Workload: "bank", Policy: "rubic"}, {Workload: "bank", Policy: "rubic"}}
}

// chaos is the soaks' stack options: two workers per stack under the
// scenario, each logging under root unless it is empty.
func chaos(scenario, root string) colocate.StackOptions {
	o := colocate.StackOptions{StackFlags: colocate.StackFlags{Pool: 2, Seed: 1}, Chaos: scenario}
	if root != "" {
		o.Durable = colocate.DurableFlags{On: true, Root: root}
	}
	return o
}

// nonZeroFraction reports how many of a child's telemetry throughput samples
// are positive — the soak's proxy for "the commit rate never collapsed".
func nonZeroFraction(r ChildResult) float64 {
	if r.Throughputs.Len() == 0 {
		return 0
	}
	nz := 0
	for _, v := range r.Throughputs.V {
		if v > 0 {
			nz++
		}
	}
	return float64(nz) / float64(r.Throughputs.Len())
}

// TestChaosCrashLoopSoak is the acceptance soak: under crashloop@7 every
// agent crashes on its first two incarnations at seed-determined ticks; the
// supervisor must recover each within its backoff budget, hand the preserved
// tuning state to the replacements, and the co-located survivor's commit
// rate must never drop to zero while its sibling is being restarted.
func TestChaosCrashLoopSoak(t *testing.T) {
	// Duration is measurement budget: the supervisor charges each
	// incarnation's telemetry clock against it, not the wall time its
	// population burns, so 2 s comfortably covers three incarnations even on
	// slow -race CI hosts.
	results, err := Run(chaosChildren(), Options{
		Duration: 2 * time.Second,
		Period:   5 * time.Millisecond,
		Stack:    chaos("crashloop@7", ""),
		Restart: RestartPolicy{MaxRestarts: 4, Backoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, JitterSeed: 7},
		Exec: fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Restarts != 2 {
			t.Errorf("%s: %d restarts, want 2 (crashloop kills incarnations 0 and 1)", r.Name, r.Restarts)
		}
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: final incarnation did not complete cleanly: %+v", r.Name, r)
		}
		if frac := nonZeroFraction(r); frac < 0.5 {
			t.Errorf("%s: commit rate collapsed during recovery: only %.0f%% of samples nonzero", r.Name, frac*100)
		}
	}
	// The backoff schedules are pure functions of (policy, child, restart):
	// identical across any two runs of this scenario@seed by construction.
	for _, r := range results {
		p := RestartPolicy{MaxRestarts: 4, Backoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, JitterSeed: 7}
		for i, d := range r.Backoffs {
			if want := p.Delay(r.Name, i+1); d != want {
				t.Errorf("%s: backoff %d = %v, want deterministic %v", r.Name, i, d, want)
			}
		}
	}
}

// TestChaosCorruptSoak: corrupt@5 injects exactly four bad telemetry lines
// (two corrupt, one truncated, one version-skewed) into each stack's first
// incarnation; the frame-error budget absorbs all of them, deterministically.
func TestChaosCorruptSoak(t *testing.T) {
	results, err := Run(chaosChildren(), Options{
		Duration:         500 * time.Millisecond,
		Period:           5 * time.Millisecond,
		Stack:            chaos("corrupt@5", ""),
		FrameErrorBudget: 4,
		Exec:             fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.DroppedFrames != 4 {
			t.Errorf("%s: dropped %d frames, want exactly the 4 scheduled", r.Name, r.DroppedFrames)
		}
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: run damaged by corrupt lines: %+v", r.Name, r)
		}
	}
}

// TestChaosStallSoak: stall@3 wedges workers in the task slot and delays
// telemetry lines; the pool's gate accounting and the supervisor's deadlines
// must carry the run to clean results.
func TestChaosStallSoak(t *testing.T) {
	results, err := Run(chaosChildren(), Options{
		Duration: 500 * time.Millisecond,
		Period:   5 * time.Millisecond,
		Stack:    chaos("stall@3", ""),
		Exec:     fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: stalled workers sank the run: %+v", r.Name, r)
		}
	}
}

// TestChaosMixedSoak layers controller-tick faults, worker panics, telemetry
// corruption and one crash per stack: every hardening layer at once. The
// recovered worker panics must surface in the supervisor's fault counter.
func TestChaosMixedSoak(t *testing.T) {
	results, err := Run(chaosChildren(), Options{
		Duration: 2 * time.Second,
		Period:   5 * time.Millisecond,
		Stack:    chaos("mixed@11", ""),
		Restart: RestartPolicy{MaxRestarts: 2, Backoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, JitterSeed: 11},
		FrameErrorBudget: 2,
		Exec:             fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Restarts != 1 {
			t.Errorf("%s: %d restarts, want 1 (mixed crashes incarnation 0 only)", r.Name, r.Restarts)
		}
		if r.Faults == 0 {
			t.Errorf("%s: injected worker panics never surfaced in telemetry", r.Name)
		}
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: run damaged: %+v", r.Name, r)
		}
	}
}

// TestChaosDurabilitySoak is the durable acceptance soak: under
// durability@9 each agent's WAL batch write is torn mid-commit-storm on its
// first two incarnations (an fsync stall first adds disk-latency pressure),
// killing the process at the torn write with no teardown. Every replacement
// must recover its predecessor's log, and the supervisor asserts the
// exact-prefix contract on each one's first report: the recovered prefix
// covers every commit any predecessor acked durable. The third incarnation
// runs clean and re-passes the workload's Verify over the recovered state.
func TestChaosDurabilitySoak(t *testing.T) {
	results, err := Run(chaosChildren(), Options{
		Duration: 2 * time.Second,
		Period:   5 * time.Millisecond,
		Stack:    chaos("durability@9", t.TempDir()),
		Restart: RestartPolicy{MaxRestarts: 4, Backoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, JitterSeed: 9},
		Exec: fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Restarts != 2 {
			t.Errorf("%s: %d restarts, want 2 (durability tears incarnations 0 and 1)", r.Name, r.Restarts)
		}
		if r.Wal == nil {
			t.Errorf("%s: durable child reported no WAL state", r.Name)
			continue
		}
		if r.Wal.Recovered == 0 {
			t.Errorf("%s: final incarnation recovered an empty prefix after two torn crashes", r.Name)
		}
		if r.WalAcked == 0 {
			t.Errorf("%s: no commit was ever acked durable", r.Name)
		}
		if r.Wal.Acked != r.Wal.Last {
			t.Errorf("%s: clean close left acked %d behind issued %d", r.Name, r.Wal.Acked, r.Wal.Last)
		}
		if r.Wal.Lost {
			t.Errorf("%s: final (clean) incarnation flagged durability lost", r.Name)
		}
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: final incarnation did not complete cleanly: %+v", r.Name, r)
		}
	}
}

// TestChaosCrashSoak is the seeded kill-loop behind `make crash-soak`: under
// crashloop@seed each durable agent is killed at a seed-determined telemetry
// tick — mid-commit-storm, no teardown, no result frame — on its first two
// incarnations. Unlike the torn-write soak, the log itself is healthy at
// each kill, so recovery must surface everything written, and the
// supervisor's exact-prefix assertion (inside Run) checks each replacement
// against the durable watermark its predecessors reported. Multiple seeds
// vary the kill points across the storm.
func TestChaosCrashSoak(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			results, err := Run(chaosChildren(), Options{
				Duration: 2 * time.Second,
				Period:   5 * time.Millisecond,
				Stack:    chaos(fmt.Sprintf("crashloop@%d", seed), t.TempDir()),
				Restart: RestartPolicy{MaxRestarts: 4, Backoff: 10 * time.Millisecond,
					MaxBackoff: 40 * time.Millisecond, JitterSeed: seed},
				Exec: fakeExec("agent", nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Restarts != 2 {
					t.Errorf("%s: %d restarts, want 2 (crashloop kills incarnations 0 and 1)", r.Name, r.Restarts)
				}
				if r.WalRecoveries < 2 {
					t.Errorf("%s: only %d incarnations recovered a non-empty prefix, want both replacements", r.Name, r.WalRecoveries)
				}
				if r.Wal == nil || r.Wal.Recovered == 0 {
					t.Errorf("%s: final incarnation recovered nothing after two kills (wal=%+v)", r.Name, r.Wal)
				}
				if r.Completed == 0 || !r.Verified {
					t.Errorf("%s: final incarnation did not complete cleanly: %+v", r.Name, r)
				}
			}
		})
	}
}

// TestChaosScheduleDeterministic pins the end-to-end determinism claim at
// the plan layer: the exact fault plan each incarnation runs under is a pure
// function of scenario@seed, child and incarnation — two supervisors running
// the same chaos spec install identical schedules in every child.
func TestChaosScheduleDeterministic(t *testing.T) {
	for _, scenario := range fault.Scenarios() {
		for child := 0; child < 3; child++ {
			for inc := 0; inc < 3; inc++ {
				a, err := fault.PlanFor(scenario, 7, child, inc)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := fault.PlanFor(scenario, 7, child, inc)
				if a.Seed != b.Seed || len(a.Events) != len(b.Events) {
					t.Fatalf("%s child %d inc %d: plans differ", scenario, child, inc)
				}
				for i := range a.Events {
					if a.Events[i] != b.Events[i] {
						t.Fatalf("%s child %d inc %d: event %d differs: %+v vs %+v",
							scenario, child, inc, i, a.Events[i], b.Events[i])
					}
				}
			}
		}
	}
}

// TestChaosSwapStormSoak: swapstorm kills each agent mid-engine-handoff —
// inside AdaptiveStack.actuate, after the controller snapshot but before the
// switch completes — on its second or third handoff. The supervisor must
// restart the stack once, hand the replacement both the preserved tuning
// state and the preserved adaptive-policy state, and the replacement must
// resume on its predecessor's candidate instead of re-probing from scratch.
func TestChaosSwapStormSoak(t *testing.T) {
	// Candidates alternate engines so every probing step is a real handoff —
	// the scenario's crash point is guaranteed to arm within the first sweep.
	specs := chaosChildren()
	for i := range specs {
		specs[i].Adaptive = "tl2:backoff+norec:backoff+tl2:greedy+norec:greedy"
	}
	results, err := Run(specs, Options{
		Duration: 2 * time.Second,
		Period:   5 * time.Millisecond,
		Stack:    chaos("swapstorm@13", ""),
		Restart: RestartPolicy{MaxRestarts: 2, Backoff: 10 * time.Millisecond,
			MaxBackoff: 40 * time.Millisecond, JitterSeed: 13},
		Exec: fakeExec("agent", nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Restarts != 1 {
			t.Errorf("%s: %d restarts, want 1 (swapstorm crashes incarnation 0 only)", r.Name, r.Restarts)
		}
		if !r.CtlRestored {
			t.Errorf("%s: replacement incarnation was not handed the preserved tuning state", r.Name)
		}
		if !r.AdaptResumed {
			t.Errorf("%s: replacement re-probed instead of resuming the preserved candidate (adapt=%+v)", r.Name, r.Adapt)
		}
		if r.Adapt == nil {
			t.Errorf("%s: no adaptive state surfaced in telemetry", r.Name)
		}
		if r.Completed == 0 || !r.Verified {
			t.Errorf("%s: final incarnation did not complete cleanly: %+v", r.Name, r)
		}
		if frac := nonZeroFraction(r); frac < 0.5 {
			t.Errorf("%s: commit rate collapsed across the handoff crash: only %.0f%% of samples nonzero", r.Name, frac*100)
		}
	}
}
