package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/mproc"
	"rubic/internal/stamp"
)

// TestHelperAgent is the agent child the proc-mode tests spawn: the real
// cmd binary isn't built during go test, so the supervisor is pointed at
// this test binary, which runs the production agent entry point and exits.
func TestHelperAgent(t *testing.T) {
	if os.Getenv("RUBIC_COLOCATE_HELPER") != "agent" {
		return
	}
	var args []string
	for i, a := range os.Args {
		if a == "--" {
			args = os.Args[i+1:]
			break
		}
	}
	if err := mproc.AgentMain(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// useHelperAgents reroutes proc-mode children to TestHelperAgent for the
// duration of one test.
func useHelperAgents(t *testing.T) {
	t.Helper()
	agentExec = func(spec mproc.ChildSpec, args []string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperAgent$", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "RUBIC_COLOCATE_HELPER=agent")
		return cmd, nil
	}
	t.Cleanup(func() { agentExec = nil })
}

// testConfig mirrors the flag defaults at test-friendly scale.
func testConfig(mode, procs string) cliConfig {
	return cliConfig{
		mode:     mode,
		procs:    procs,
		pool:     2,
		duration: 200 * time.Millisecond,
		period:   5 * time.Millisecond,
		seed:     1,
		engine:   "tl2",
		restarts: 2,
	}
}

func TestRunTwoStacks(t *testing.T) {
	if err := run(testConfig("goroutine", "rbtree-ro:rubic,bank:ebs")); err != nil {
		t.Fatal(err)
	}
}

func TestRunStaggeredNOrec(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic,bank:rubic@100ms")
	cfg.duration = 250 * time.Millisecond
	cfg.engine = "norec"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedyStack(t *testing.T) {
	cfg := testConfig("goroutine", "rbtree:greedy")
	cfg.duration = 100 * time.Millisecond
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunProcMode is the CLI-level smoke test for process mode: two real
// agent child processes for ~200 ms, results and fairness printed, clean exit.
func TestRunProcMode(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning smoke test in -short mode")
	}
	useHelperAgents(t)
	if err := run(testConfig("proc", "rbtree-ro:rubic,rbtree-ro:rubic")); err != nil {
		t.Fatal(err)
	}
}

// TestRunChaosGoroutine smoke-tests the -chaos flag end to end in goroutine
// mode: the mixed scenario's pool and controller faults are injected, the
// run still completes and verifies.
func TestRunChaosGoroutine(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic,bank:rubic")
	cfg.duration = 300 * time.Millisecond
	cfg.chaos = "mixed@11"
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunChaosProcMode smoke-tests -chaos in proc mode: crashloop kills each
// agent's first two incarnations and the CLI's default restart policy must
// carry both stacks to a clean verified finish.
func TestRunChaosProcMode(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-spawning smoke test in -short mode")
	}
	useHelperAgents(t)
	cfg := testConfig("proc", "bank:rubic,bank:rubic")
	cfg.duration = time.Second
	cfg.chaos = "crashloop@7"
	cfg.restarts = 3
	cfg.seed = 7
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaosBadScenario(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic")
	cfg.chaos = "earthquake@1"
	if err := run(cfg); err == nil {
		t.Fatal("unknown chaos scenario accepted")
	}
}

func TestRunProcModeBadEngine(t *testing.T) {
	useHelperAgents(t)
	cfg := testConfig("proc", "rbtree-ro:rubic")
	cfg.duration = 100 * time.Millisecond
	cfg.engine = "quantum"
	if err := run(cfg); err == nil {
		t.Fatal("unknown engine accepted in proc mode")
	}
}

func TestRunUnknownMode(t *testing.T) {
	cfg := testConfig("threads", "rbtree-ro:rubic")
	if err := run(cfg); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := []struct {
		procs, algo string
	}{
		{"rbtree", "tl2"},           // missing policy
		{"rbtree:nope", "tl2"},      // unknown policy
		{"nope:rubic", "tl2"},       // unknown workload
		{"rbtree:rubic@x", "tl2"},   // bad delay
		{"rbtree:rubic", "quantum"}, // unknown engine
		{"a:b:c", "tl2"},            // malformed
	}
	for _, tc := range cases {
		cfg := testConfig("goroutine", tc.procs)
		cfg.duration = 100 * time.Millisecond
		cfg.engine = tc.algo
		if err := run(cfg); err == nil {
			t.Errorf("procs %q algo %q accepted", tc.procs, tc.algo)
		}
	}
}

// TestModesBuildTheSameProc is the parity gate: for every flag combination,
// the stack goroutine mode assembles and the stack a process-mode agent
// assembles from the flags the supervisor hands it are wired identically —
// same controller, same health policy, chaos injector, adapter and log
// options in the same places.
func TestModesBuildTheSameProc(t *testing.T) {
	root := t.TempDir()
	cases := []struct {
		name   string
		procs  string
		mutate func(*cliConfig)
	}{
		{"plain", "bank:rubic,bank:ebs@50ms", func(*cliConfig) {}},
		{"greedy", "rbtree:greedy", func(*cliConfig) {}},
		{"norec", "bank:rubic", func(c *cliConfig) { c.engine = "norec" }},
		{"chaos", "bank:rubic,bank:rubic", func(c *cliConfig) { c.chaos = "mixed@11" }},
		{"adaptive", "bank:rubic", func(c *cliConfig) { c.adaptive = "tl2/backoff+norec/greedy" }},
		{"durable", "bank:rubic,bank:greedy", func(c *cliConfig) {
			c.durable = colocate.DurableFlags{On: true, Root: root, Fsync: "os"}
		}},
		{"everything", "bank:rubic,bank:aimd,bank:rubic", func(c *cliConfig) {
			c.chaos, c.adaptive, c.pool = "durability@3", "norec/backoff+tl2/polka", 6
			c.durable = colocate.DurableFlags{On: true, Root: root, Fsync: "always"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig("goroutine", tc.procs)
			tc.mutate(&cfg)
			specs, err := colocate.ParseSpecs(cfg.procs)
			if err != nil {
				t.Fatal(err)
			}
			children, opt := procChildren(cfg, specs)
			for i := range specs {
				g, err := goroutineProc(cfg, specs, i)
				if err != nil {
					t.Fatal(err)
				}
				// What the supervisor hands child i (mproc.AgentArgs plus its
				// per-attempt chaos flags), as the agent's parsed config.
				agent := mproc.AgentConfig{
					Spec: colocate.StackSpec{Workload: children[i].Workload, Policy: children[i].Policy},
					Stack: colocate.StackOptions{
						Engine:    opt.Engine,
						Pool:      children[i].Pool,
						Processes: len(children),
						Seed:      children[i].Seed,
						Chaos:     opt.Chaos,
						Child:     i,
						Adaptive:  opt.Adaptive,
					},
				}
				if agent.Durable = opt.Durable; opt.Durable.On {
					agent.Durable.Root = colocate.WalDir(opt.Durable.Root, children[i].Name)
				}
				a, err := agent.Proc()
				if err != nil {
					t.Fatal(err)
				}
				if g.Name != children[i].Name {
					t.Errorf("stack %d is %q in goroutine mode, %q in proc mode", i, g.Name, children[i].Name)
				}
				if g.PoolSize != a.PoolSize || g.Seed != a.Seed || g.ArrivalDelay != children[i].ArrivalDelay {
					t.Errorf("stack %d: pool/seed/arrival differ: %+v vs %+v (child %+v)", i, g, a, children[i])
				}
				if (g.Controller == nil) != (a.Controller == nil) ||
					(g.Controller != nil && g.Controller.Name() != a.Controller.Name()) {
					t.Errorf("stack %d: controllers differ: %v vs %v", i, g.Controller, a.Controller)
				}
				if !reflect.DeepEqual(g.Health, a.Health) {
					t.Errorf("stack %d: health policy %+v vs %+v", i, g.Health, a.Health)
				}
				if (g.Health != nil) != (g.Controller != nil) {
					t.Errorf("stack %d: guard on = %v with controller %v", i, g.Health != nil, g.Controller)
				}
				if (g.Faults == nil) != (a.Faults == nil) || (g.Faults != nil) != (cfg.chaos != "") {
					t.Errorf("stack %d: injector presence differs or ignores -chaos: %v vs %v", i, g.Faults, a.Faults)
				}
				if (g.Adapter == nil) != (a.Adapter == nil) || (g.Adapter != nil) != (cfg.adaptive != "") {
					t.Errorf("stack %d: adapter presence differs or ignores -adaptive: %v vs %v", i, g.Adapter, a.Adapter)
				}
				if g.Runtime == nil || a.Runtime == nil || g.Runtime.Algorithm() != a.Runtime.Algorithm() {
					t.Errorf("stack %d: runtimes differ", i)
				}
				if (g.Durable == nil) != (a.Durable == nil) || (g.Durable != nil) != cfg.durable.On {
					t.Fatalf("stack %d: log presence differs or ignores -durable: %+v vs %+v", i, g.Durable, a.Durable)
				}
				if g.Durable != nil {
					if g.Durable.Dir != a.Durable.Dir || g.Durable.Policy != a.Durable.Policy {
						t.Errorf("stack %d: log options %+v vs %+v", i, g.Durable, a.Durable)
					}
					if filepath.Dir(g.Durable.Dir) != root {
						t.Errorf("stack %d: log directory %q is not directly under %q", i, g.Durable.Dir, root)
					}
					if (g.Durable.Faults != g.Faults) || (a.Durable.Faults != a.Faults) {
						t.Errorf("stack %d: log not driven by the stack's injector", i)
					}
				}
			}
		})
	}
}

// TestRunGoroutineRejectsAdaptiveGreedy: a pinned stack has no tuning loop to
// deliver epochs, so goroutine mode refuses to hot-swap it.
func TestRunGoroutineRejectsAdaptiveGreedy(t *testing.T) {
	cfg := testConfig("goroutine", "bank:greedy")
	cfg.adaptive = "tl2/backoff+norec/greedy"
	if err := run(cfg); err == nil {
		t.Fatal("-adaptive on a greedy stack accepted in goroutine mode")
	}
}

// TestRunDurableGoroutine: -durable end to end in goroutine mode, twice over
// one -wal-dir — the second run recovers the first's logs — and the flag
// group's validation.
func TestRunDurableGoroutine(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic,bank:greedy")
	cfg.durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	for run_ := 0; run_ < 2; run_++ {
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(cfg.durable.Root)
	if err != nil || len(entries) != 2 {
		t.Fatalf("want one log directory per stack under -wal-dir, got %v (err %v)", entries, err)
	}
	cfg.durable.Root = ""
	if err := run(cfg); err == nil {
		t.Fatal("-durable without -wal-dir accepted")
	}
	cfg.durable.Root, cfg.durable.Fsync = t.TempDir(), "sometimes"
	if err := run(cfg); err == nil {
		t.Fatal("unknown -fsync policy accepted")
	}
}

// failsVerify runs as the workload it wraps and then fails its audit.
type failsVerify struct{ stamp.Workload }

func (failsVerify) Verify() error { return errors.New("audit failed") }

// TestRunGroupPrintsResultsBesideAnError: Group.Run returns every finished
// stack's result beside a verification error; goroutine mode prints the
// table and the log outcomes first and returns the error after, as proc mode
// does.
func TestRunGroupPrintsResultsBesideAnError(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic,bank:rubic")
	cfg.durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	specs, err := colocate.ParseSpecs(cfg.procs)
	if err != nil {
		t.Fatal(err)
	}
	var stacks []colocate.Proc
	for i := range specs {
		p, err := goroutineProc(cfg, specs, i)
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, p)
	}
	stacks[1].Workload, stacks[1].Durable = failsVerify{stacks[1].Workload}, nil
	var out strings.Builder
	err = runGroup(cfg, stacks, &out)
	if err == nil || !strings.Contains(err.Error(), "P2-bank-rubic verification") {
		t.Fatalf("err = %v, want the second stack's verification failure", err)
	}
	for _, want := range []string{"throughput/s", "P1-bank-rubic ", "P2-bank-rubic ", "Jain fairness", "P1-bank-rubic: wal acked"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "invariants verified") {
		t.Errorf("a failed audit reported as verified:\n%s", out.String())
	}
}
