package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	agentExec = func(_ string, args []string) (*exec.Cmd, error) {
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
		duration: 200 * time.Millisecond,
		period:   5 * time.Millisecond,
		restarts: 2,
		stack:    colocate.StackFlags{Engine: "tl2", Pool: 2, Seed: 1},
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
	cfg.stack.Engine = "norec"
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
	cfg.stack.Seed = 7
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
	cfg.stack.Engine = "quantum"
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

// TestRunBadInputs: both modes refuse the same inputs with the same error,
// and proc mode does so before it launches any agent — a configuration error
// is not a crash loop.
func TestRunBadInputs(t *testing.T) {
	launched := 0
	agentExec = func(string, []string) (*exec.Cmd, error) {
		launched++
		return nil, errors.New("no agent may launch for a bad input")
	}
	t.Cleanup(func() { agentExec = nil })
	cases := []struct {
		procs, algo string
	}{
		{"rbtree", "tl2"},                                        // missing policy
		{"rbtree:nope", "tl2"},                                   // unknown policy
		{"nope:rubic", "tl2"},                                    // unknown workload
		{"bank:nope,nope:rubic", "tl2"},                          // the first bad stack is named
		{"rbtree:rubic@x", "tl2"},                                // bad delay
		{"rbtree:rubic", "quantum"},                              // unknown engine
		{"a:b:c", "tl2"},                                         // malformed
		{"bank:rubic/theta=0.5", "tl2"},                          // a key that does not apply
		{"bank:greedy/adaptive=tl2:backoff+norec:greedy", "tl2"}, // no tuner to swap on
	}
	for _, tc := range cases {
		var errs [2]error
		for i, mode := range []string{"goroutine", "proc"} {
			cfg := testConfig(mode, tc.procs)
			cfg.duration = 100 * time.Millisecond
			cfg.stack.Engine = tc.algo
			errs[i] = run(cfg)
		}
		if errs[0] == nil || errs[1] == nil || !strings.Contains(errs[1].Error(), errs[0].Error()) {
			t.Errorf("procs %q algo %q: goroutine mode %v, proc mode %v; want the same refusal", tc.procs, tc.algo, errs[0], errs[1])
		}
	}
	if launched != 0 {
		t.Errorf("%d agents launched for bad inputs", launched)
	}
}

// TestModesBuildTheSameProc is the parity gate: for every spec and flag
// combination, the stack goroutine mode assembles and the stack a
// process-mode agent assembles from what the supervisor hands it are wired
// identically — same name, controller, health policy, chaos injector,
// adapter and log options in the same places — or, for an open-loop stack,
// goroutine mode runs it and the agent refuses it, naming the spec.
func TestModesBuildTheSameProc(t *testing.T) {
	root := t.TempDir()
	cases := []struct {
		name   string
		procs  string
		mutate func(*cliConfig)
	}{
		{"plain", "bank:rubic,bank:ebs@50ms", func(*cliConfig) {}},
		{"greedy", "rbtree:greedy", func(*cliConfig) {}},
		{"norec", "bank:rubic", func(c *cliConfig) { c.stack.Engine = "norec" }},
		{"chaos", "bank:rubic,bank:rubic", func(c *cliConfig) { c.chaos = "mixed@11" }},
		{"adaptive", "bank:rubic/adaptive=tl2:backoff+norec:greedy,bank:rubic", func(*cliConfig) {}},
		{"durable", "bank:rubic,bank:greedy", func(c *cliConfig) {
			c.stack.Durable = colocate.DurableFlags{On: true, Root: root, Fsync: "os"}
		}},
		{"everything", "bank:rubic/adaptive=norec:backoff+tl2:polka,bank:aimd,bank:rubic", func(c *cliConfig) {
			c.chaos, c.stack.Pool = "durability@3", 6
			c.stack.Durable = colocate.DurableFlags{On: true, Root: root, Fsync: "always"}
		}},
		{"serving", "bank:rubic,kv/qps=300/slo=250ms", func(*cliConfig) {}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig("goroutine", tc.procs)
			tc.mutate(&cfg)
			specs, err := colocate.ParseSpecs(cfg.procs)
			if err != nil {
				t.Fatal(err)
			}
			opt := procOptions(cfg, len(specs))
			goroutine, err := goroutineProcs(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range goroutine {
				// What the supervisor hands child i, as the agent's parsed config.
				agent := mproc.AgentConfig{Spec: specs[i], Stack: opt.Stack.For(i)}
				a, err := agent.Proc()
				if specs[i].QPS > 0 {
					if g.Serve == nil || err == nil || !strings.Contains(err.Error(), specs[i].String()+" is an open-loop stack") {
						t.Errorf("open-loop stack %d: goroutine mode serves it: %v; the agent refuses it: %v", i, g.Serve != nil, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if g.Name != a.Name || g.Name != specs[i].Name(i) {
					t.Errorf("stack %d is %q in goroutine mode, %q in proc mode", i, g.Name, a.Name)
				}
				if g.PoolSize != a.PoolSize || g.Seed != a.Seed || g.ArrivalDelay != a.ArrivalDelay {
					t.Errorf("stack %d: pool/seed/arrival differ: %+v vs %+v", i, g, a)
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
				if (g.Adapter == nil) != (a.Adapter == nil) || (g.Adapter != nil) != (specs[i].Adaptive != "") {
					t.Errorf("stack %d: adapter presence differs or ignores adaptive=: %v vs %v", i, g.Adapter, a.Adapter)
				}
				if g.Runtime == nil || a.Runtime == nil || g.Runtime.Algorithm() != a.Runtime.Algorithm() {
					t.Errorf("stack %d: runtimes differ", i)
				}
				if (g.Durable == nil) != (a.Durable == nil) || (g.Durable != nil) != cfg.stack.Durable.On {
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

// TestRunGoroutineRejectsAdaptiveGreedy: a pinned closed-loop stack has no
// tuning loop to deliver epochs, so its spec cannot ask to hot-swap.
func TestRunGoroutineRejectsAdaptiveGreedy(t *testing.T) {
	cfg := testConfig("goroutine", "bank:greedy/adaptive=tl2:backoff+norec:greedy")
	if err := run(cfg); err == nil {
		t.Fatal("adaptive= on a greedy stack accepted in goroutine mode")
	}
}

// TestRunMixedGroup: one command line runs a closed-loop batch job beside an
// open-loop service in goroutine mode, and reports both.
func TestRunMixedGroup(t *testing.T) {
	cfg := testConfig("goroutine", "rbtree:rubic,kv/qps=300/slo=250ms")
	cfg.duration = 600 * time.Millisecond
	specs, err := colocate.ParseSpecs(cfg.procs)
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := goroutineProcs(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runGroup(cfg, stacks, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"P1-rbtree-rubic ", "P2-kv/poisson ", "invariants verified"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunDurableGoroutine: -durable end to end in goroutine mode, twice over
// one -wal-dir — the second run recovers the first's logs — and the flag
// group's validation.
func TestRunDurableGoroutine(t *testing.T) {
	cfg := testConfig("goroutine", "bank:rubic,bank:greedy")
	cfg.stack.Durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	for run_ := 0; run_ < 2; run_++ {
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(cfg.stack.Durable.Root)
	if err != nil || len(entries) != 2 {
		t.Fatalf("want one log directory per stack under -wal-dir, got %v (err %v)", entries, err)
	}
	cfg.stack.Durable.Root = ""
	if err := run(cfg); err == nil {
		t.Fatal("-durable without -wal-dir accepted")
	}
	cfg.stack.Durable.Root, cfg.stack.Durable.Fsync = t.TempDir(), "sometimes"
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
	cfg.stack.Durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	specs, err := colocate.ParseSpecs(cfg.procs)
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := goroutineProcs(cfg, specs)
	if err != nil {
		t.Fatal(err)
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

// TestFlags pins the command line: adaptive= is a spec key, not a flag, and
// -algo/-pool/-seed/-durable are the group every stack driver shares.
func TestFlags(t *testing.T) {
	var cfg cliConfig
	fs := flag.NewFlagSet("rubic-colocate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs, &cfg)
	if err := fs.Parse([]string{"-adaptive=tl2:backoff"}); err == nil {
		t.Error("-adaptive accepted")
	}
	if err := fs.Parse([]string{"-pool=3", "-algo=norec", "-seed=5", "-durable", "-wal-dir=w"}); err != nil {
		t.Fatal(err)
	}
	want := colocate.StackFlags{Engine: "norec", Pool: 3, Seed: 5, Durable: colocate.DurableFlags{On: true, Root: "w", Fsync: "always"}}
	if cfg.stack != want {
		t.Fatalf("parsed %+v", cfg.stack)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 14 {
		t.Errorf("%d flags, want 14", n)
	}
}
