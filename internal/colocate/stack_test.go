package colocate

import (
	"path/filepath"
	"testing"
	"time"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/stamp/bank"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// TestLostLogEscalatesGuard: a log that loses durability escalates the
// stack's health guard straight to its fallback level, whichever driver
// walks the lifecycle — Group.Run (goroutine mode) or RunStack (the
// process-mode agent). Every sample is zeroed, so an unescalated guard
// would hold the controller's initial level for DegradeAfter-1 ticks before
// degrading; an escalated one actuates the fallback from the first tick.
func TestLostLogEscalatesGuard(t *testing.T) {
	const period, duration, fallback = 20 * time.Millisecond, 300 * time.Millisecond, 3
	drivers := map[string]func(Proc) (Result, error){
		"Group.Run": func(p Proc) (Result, error) {
			g, err := NewGroup([]Proc{p}, period)
			if err != nil {
				return Result{}, err
			}
			res, err := g.Run(duration)
			return res[0], err
		},
		"RunStack": func(p Proc) (Result, error) {
			return RunStack(p, period, func(func() Result) { time.Sleep(duration) })
		},
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			inj := fault.New(&fault.Plan{Seed: 7, Events: []fault.Event{
				{Point: fault.WALFsyncErr, From: 0},
				{Point: fault.SampleZero, From: 0, Count: 1 << 20},
			}})
			rt := stm.New(stm.Config{})
			res, err := run(Proc{
				Name:       "bank",
				Workload:   bank.New(rt, bank.Config{Accounts: 64}),
				Controller: core.NewRUBIC(core.RUBICConfig{MaxLevel: 4}),
				PoolSize:   4,
				Seed:       1,
				Faults:     inj,
				Health:     &core.HealthPolicy{FallbackLevel: fallback},
				Runtime:    rt,
				Durable:    &wal.Options{Dir: t.TempDir(), Policy: wal.FsyncAlways, Faults: inj},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Wal == nil || !res.Wal.Lost || res.Wal.LostErr == nil {
				t.Fatalf("injected fsync failure not reported as lost durability: %+v", res.Wal)
			}
			if res.Completed == 0 {
				t.Error("stack stopped serving after losing durability")
			}
			if res.Levels.Len() < 3 {
				t.Fatalf("only %d controller rounds recorded", res.Levels.Len())
			}
			for i, v := range res.Levels.V {
				if v != fallback {
					t.Fatalf("round %d actuated level %v, want the fallback %d from the first round: levels %v",
						i, v, fallback, res.Levels.V)
				}
			}
		})
	}
}

// TestStackSpecProcWiring pins the behaviours every driver now shares: a
// tuned stack always runs behind the health guard, degrading to its equal
// share of the pool; a pinned one has nothing to guard; the adaptive stack
// is the tuner's adapter, carries the chaos injector, and scores candidates
// over the short closed-loop window; the log lives in the stack's own
// directory under the root.
func TestStackSpecProcWiring(t *testing.T) {
	opts := StackOptions{StackFlags: StackFlags{Engine: "tl2", Pool: 6, Seed: 3}, Processes: 2}
	p, err := StackSpec{Workload: "bank", Policy: "rubic", ArrivalDelay: time.Second}.Proc("P1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "P1" || p.PoolSize != 6 || p.Seed != 3 || p.ArrivalDelay != time.Second || p.Runtime == nil {
		t.Fatalf("spec and options not carried onto the Proc: %+v", p)
	}
	if p.Controller == nil || p.Controller.Name() != "rubic" {
		t.Fatalf("controller = %v", p.Controller)
	}
	if p.Health == nil || p.Health.FallbackLevel != 3 {
		t.Fatalf("health policy = %+v, want the guard on with fallback pool/processes = 3", p.Health)
	}
	if p.Faults != nil || p.Adapter != nil || p.Durable != nil {
		t.Fatalf("chaos, adaptive or durable wiring without being asked: %+v", p)
	}

	greedy, err := StackSpec{Workload: "bank", Policy: "greedy"}.Proc("P2", opts)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Controller != nil || greedy.Health != nil {
		t.Fatalf("pinned stack got a controller or a guard: %+v", greedy)
	}

	root := t.TempDir()
	opts.Chaos, opts.Child = "mixed@11", 1
	opts.Durable = DurableFlags{On: true, Root: root, Fsync: "os"}
	full, err := StackSpec{Workload: "bank", Policy: "rubic", Adaptive: "tl2:backoff+norec:backoff"}.Proc("P3", opts)
	if err != nil {
		t.Fatal(err)
	}
	stack, ok := full.Adapter.(*AdaptiveStack)
	if !ok || full.Faults == nil || stack.Faults != full.Faults || full.Durable.Faults != full.Faults {
		t.Fatalf("one injector must drive pool, tuner, handoff and log: %+v", full)
	}
	if full.Durable.Dir != filepath.Join(root, "P3") || full.Durable.Policy != wal.FsyncOS {
		t.Fatalf("durable options = %+v, want the stack's own directory under %q", full.Durable, root)
	}
	// One warm-up epoch and a window of two close the first candidate's
	// probe; the core default window of four would still be scoring it.
	for i := 0; i < 3; i++ {
		stack.Epoch(core.Observation{Tput: 1000})
	}
	if cur := stack.policy.Current(); cur != 1 {
		t.Fatalf("after three epochs the policy is on candidate %d, want 1 (window of 2)", cur)
	}

	for _, bad := range []StackOptions{
		{StackFlags: StackFlags{Engine: "quantum", Pool: 2}, Processes: 1},
		{StackFlags: StackFlags{Engine: "tl2", Pool: 2}, Processes: 1, Chaos: "earthquake@1"},
		{StackFlags: StackFlags{Engine: "tl2", Pool: 2, Durable: DurableFlags{On: true}}, Processes: 1},
	} {
		if _, err := (StackSpec{Workload: "bank", Policy: "rubic"}).Proc("bad", bad); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
	if _, err := (StackSpec{Workload: "bank", Policy: "rubic", Adaptive: "tl2:nope"}).Proc("bad", opts); err == nil {
		t.Error("unknown adaptive CM accepted")
	}
}

// TestWalDir: whatever the stack is called, its log lives in exactly one
// directory directly under the root.
func TestWalDir(t *testing.T) {
	root := filepath.Join("var", "wal")
	for name, want := range map[string]string{
		"P1-bank-rubic":   "P1-bank-rubic",
		"kv/poisson":      "kv_poisson",
		"P2-kv/poisson":   "P2-kv_poisson",
		`a\b/c`:           "a_b_c",
		"../../etc/шляпа": ".._.._etc_шляпа",
	} {
		got := WalDir(root, name)
		if got != filepath.Join(root, want) || filepath.Dir(got) != root {
			t.Errorf("WalDir(%q, %q) = %q, want %q", root, name, got, filepath.Join(root, want))
		}
	}
	if got := WalDir(root, ""); got != root {
		t.Errorf("WalDir with no stack name = %q, want the root itself", got)
	}
}

func TestDurableFlagsOptions(t *testing.T) {
	if o, err := (DurableFlags{Root: "x", Fsync: "bogus"}).Options("s"); o != nil || err != nil {
		t.Fatalf("-durable off: options %+v, err %v; want nil, nil", o, err)
	}
	if _, err := (DurableFlags{On: true, Fsync: "always"}).Options("s"); err == nil {
		t.Error("-durable without -wal-dir accepted")
	}
	if _, err := (DurableFlags{On: true, Root: "x", Fsync: "sometimes"}).Options("s"); err == nil {
		t.Error("unknown fsync policy accepted")
	}
	o, err := DurableFlags{On: true, Root: "x", Fsync: "interval"}.Options("kv/poisson")
	if err != nil || o.Dir != filepath.Join("x", "kv_poisson") || o.Policy != wal.FsyncInterval {
		t.Fatalf("options %+v, err %v", o, err)
	}
}
