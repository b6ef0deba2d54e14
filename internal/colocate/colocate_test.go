package colocate

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/load"
	"rubic/internal/pool"
	"rubic/internal/stamp/bank"
	"rubic/internal/stamp/rbtree"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

func mkProc(name string, seed int64) Proc {
	return Proc{
		Name:     name,
		Workload: rbtree.New(stm.New(stm.Config{}), rbtree.Config{Elements: 1024, LookupPct: 100}),
		Controller: core.NewRUBIC(core.RUBICConfig{
			MaxLevel: 4,
		}),
		PoolSize: 4,
		Seed:     seed,
	}
}

// drives is what the scheduler's contracts are checked over: the same Proc
// run closed loop, and run open loop behind a load.Server.
var drives = []struct {
	name  string
	serve func(t *testing.T) *load.Config
}{
	{"closed loop", func(*testing.T) *load.Config { return nil }},
	{"open loop", func(t *testing.T) *load.Config { return serveConfig(t, 400, nil, 3) }},
}

// serveConfig is an open-loop front end at a modest Poisson rate.
func serveConfig(t *testing.T, qps float64, slo *core.SLOPolicy, seed int64) *load.Config {
	t.Helper()
	a, err := load.NewPoisson(qps, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &load.Config{Arrival: a, SLO: slo, Epoch: 100 * time.Millisecond}
}

// TestNewGroupValidation: every misconfiguration that can be read off the
// description is refused by name at NewGroup — before Run exists to populate
// the valid stacks ahead of the bad one and recover their logs.
func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(nil, 0); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := NewGroup([]Proc{mkProc("a", 1), mkProc("a", 2)}, 0); err == nil {
		t.Fatal("duplicate names accepted")
	}
	rt := stm.New(stm.Config{})
	durable := &wal.Options{Dir: t.TempDir()}
	serve := serveConfig(t, 100, nil, 1)
	for name, tc := range map[string]struct {
		mutate func(*Proc)
		want   string // what the error must say
	}{
		"no workload": {func(p *Proc) { p.Workload = nil }, "no workload"},
		"zero pool":   {func(p *Proc) { p.PoolSize = 0 }, "pool size 0"},
		"durable without runtime": {func(p *Proc) {
			p.Workload, p.Durable = bank.New(rt, bank.Config{}), durable
		}, "needs its workload's runtime"},
		"durable on a workload with no durable state": {func(p *Proc) {
			p.Runtime, p.Durable = rt, durable
		}, "no durable state"},
		"sharded workload cannot log": {func(p *Proc) {
			p.Workload = load.NewShardedKV(stm.NewSharded(2, stm.Config{}), load.KVConfig{})
			p.Durable = durable
		}, "needs its workload's runtime"},
		"serve with faults":     {func(p *Proc) { p.Serve, p.Faults = serve, fault.New(&fault.Plan{}) }, "fault injection is not wired"},
		"serve with health":     {func(p *Proc) { p.Serve, p.Health = serve, &core.HealthPolicy{} }, "health stage is not wired"},
		"serve without arrival": {func(p *Proc) { p.Serve = &load.Config{} }, "needs an arrival process"},
	} {
		bad := mkProc("bad", 2)
		tc.mutate(&bad)
		_, err := NewGroup([]Proc{mkProc("good", 1), bad}, 0)
		if err == nil || !strings.Contains(err.Error(), "stack bad: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want stack bad refused with %q", name, err, tc.want)
		}
	}
	unnamed := mkProc("", 3)
	if _, err := NewGroup([]Proc{unnamed}, 0); err == nil {
		t.Error("unnamed stack accepted")
	}
}

func TestRunValidation(t *testing.T) {
	g, err := NewGroup([]Proc{mkProc("a", 1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
	p := mkProc("late", 1)
	p.ArrivalDelay = time.Second
	g, err = NewGroup([]Proc{p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(100 * time.Millisecond); err == nil {
		t.Fatal("arrival after end accepted")
	}
}

func TestTwoStacksRun(t *testing.T) {
	g, err := NewGroup([]Proc{mkProc("P1", 1), mkProc("P2", 2)}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.Run(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Completed == 0 {
			t.Errorf("%s completed nothing", r.Name)
		}
		if r.Levels == nil || r.Levels.Len() == 0 {
			t.Errorf("%s recorded no levels", r.Name)
		}
		if r.MeanLevel < 1 || r.MeanLevel > 4 {
			t.Errorf("%s mean level %v out of range", r.Name, r.MeanLevel)
		}
	}
}

// TestStaggeredArrival asserts what ArrivalDelay guarantees, on active time
// (Completed / Throughput, start to the end of the stack's own teardown): the
// late stack cannot have been active before its arrival or after Run
// returned, and the early one was active for most of the delay longer (the
// two teardowns end a few scheduler slices apart on a starved host).
// Controller round counts are not compared — a starved ticker drops rounds
// under oversubscription, which says nothing about when a stack started.
func TestStaggeredArrival(t *testing.T) {
	const duration, delay = 500 * time.Millisecond, 300 * time.Millisecond
	p1 := mkProc("early", 1)
	p2 := mkProc("late", 2)
	p2.ArrivalDelay = delay
	g, err := NewGroup([]Proc{p1, p2}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	results, err := g.Run(duration)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Completed == 0 {
		t.Fatal("late stack never ran")
	}
	active := func(r Result) time.Duration {
		return time.Duration(float64(r.Completed) / r.Throughput * float64(time.Second))
	}
	early, late := active(results[0]), active(results[1])
	if late > elapsed-delay {
		t.Errorf("late stack active %v of a %v run it joined %v in", late, elapsed, delay)
	}
	if early < late+delay/2 {
		t.Errorf("early stack active %v, late %v: want most of the %v delay between them", early, late, delay)
	}
}

// brokenWorkload sabotages pool construction by returning a nil task.
type brokenWorkload struct{}

func (brokenWorkload) Name() string               { return "broken" }
func (brokenWorkload) Setup(rng *rand.Rand) error { return nil }
func (brokenWorkload) Task() pool.Task            { return nil }
func (brokenWorkload) Verify() error              { return nil }

// TestFailingStackAbortsGroupPromptly: a stack whose pool cannot be built
// fails the group at its arrival and cuts its sibling short — over both
// drives, since both start through the same scheduler.
func TestFailingStackAbortsGroupPromptly(t *testing.T) {
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			healthy := mkProc("healthy", 1)
			healthy.Serve = d.serve(t)
			broken := Proc{
				Name:     "broken",
				Workload: brokenWorkload{},
				PoolSize: 2,
				Seed:     2,
				Serve:    d.serve(t),
				// Delay the failure so the healthy stack is already mid-run.
				ArrivalDelay: 50 * time.Millisecond,
			}
			g, err := NewGroup([]Proc{healthy, broken}, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = g.Run(10 * time.Second)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("broken stack went unreported")
			}
			if !strings.Contains(err.Error(), "broken") {
				t.Errorf("error does not name the failing stack: %v", err)
			}
			// The healthy stack must have been cut short, not run the full 10 s.
			if elapsed > 3*time.Second {
				t.Fatalf("group ran %v after a stack failed; want a prompt abort", elapsed)
			}
		})
	}
}

// wedgedBank is a durable workload whose tasks never return, so its pool's
// Stop can never finish: the stack is unrecoverable in-process and teardown
// must route around it.
type wedgedBank struct {
	*bank.Bench
	block chan struct{}
}

func (w wedgedBank) Task() pool.Task {
	return func(int, *rand.Rand) bool { <-w.block; return true }
}

// TestWedgedStackBoundedTeardown is the graceful-shutdown regression, over
// both drives: a stack wedged inside a task must not hang Run past the grace
// period, the error must name it, its log must be left open (its workers may
// still commit), and the healthy sibling's result and log outcome must
// survive.
func TestWedgedStackBoundedTeardown(t *testing.T) {
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			block := make(chan struct{})
			defer close(block) // release the leaked workers once the test is done
			durable := func(name string, seed int64) Proc {
				rt := stm.New(stm.Config{})
				return Proc{
					Name: name, Workload: bank.New(rt, bank.Config{Accounts: 64}), PoolSize: 2, Seed: seed,
					Runtime: rt, Durable: &wal.Options{Dir: t.TempDir(), Policy: wal.FsyncOS}, Serve: d.serve(t),
				}
			}
			healthy, stuck := durable("healthy", 1), durable("stuck", 2)
			stuck.Workload = wedgedBank{Bench: stuck.Workload.(*bank.Bench), block: block}
			g, err := NewGroup([]Proc{healthy, stuck}, 5*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			g.Grace = 300 * time.Millisecond
			start := time.Now()
			results, err := g.Run(200 * time.Millisecond)
			if err == nil || !strings.Contains(err.Error(), "stuck") {
				t.Fatalf("wedged stack unreported or unnamed: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("teardown hung %v on a wedged stack", elapsed)
			}
			if results[0].Completed == 0 {
				t.Error("healthy sibling's results lost to the wedged stack")
			}
			if w := results[0].Wal; w == nil || w.Lost || w.LastCSN == 0 || w.DurableCSN != w.LastCSN {
				t.Errorf("healthy sibling's log outcome lost or unflushed: %+v", w)
			}
			if results[1].Name != "stuck" || results[1].Wal != nil {
				t.Errorf("wedged stack's log was closed under its workers: %+v", results[1])
			}
		})
	}
}

// TestStackFaultsAndHealthWiring: a Proc-level fault plan reaches the
// stack's pool (injected panics surface in Result.Faults) and a health
// policy wraps its controller without disturbing a clean run.
func TestStackFaultsAndHealthWiring(t *testing.T) {
	p := mkProc("chaotic", 5)
	p.Faults = fault.New(&fault.Plan{Seed: 2, Events: []fault.Event{
		{Point: fault.WorkerPanic, From: 3, Count: 2},
	}})
	p.Health = &core.HealthPolicy{FallbackLevel: 2}
	g, err := NewGroup([]Proc{p}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.Run(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Faults != 2 {
		t.Errorf("injected panics not surfaced: Faults = %d, want 2", results[0].Faults)
	}
	if results[0].Completed == 0 {
		t.Error("stack made no progress around the injected panics")
	}
}

func TestGreedyStack(t *testing.T) {
	p := mkProc("greedy", 3)
	p.Controller = nil // pinned at pool size
	g, err := NewGroup([]Proc{p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.Run(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].MeanLevel != 4 {
		t.Fatalf("greedy mean level = %v, want 4", results[0].MeanLevel)
	}
}

// countingArrival counts the gaps drawn from it: one per generated request.
type countingArrival struct {
	load.Arrival
	drawn *atomic.Int64
}

func (c countingArrival) Next() time.Duration { c.drawn.Add(1); return c.Arrival.Next() }

// TestLogsOpenBeforeAnyTraffic: every log of a group is opened and replayed
// before the first request of any stack is generated, so co-located
// measurement windows start together and a log that cannot open costs no
// traffic. The second stack's log directory is a file; when the error
// returns, the first stack has drawn no arrival.
func TestLogsOpenBeforeAnyTraffic(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var drawn atomic.Int64
	procs := make([]Proc, 2)
	for i, dir := range []string{t.TempDir(), notADir} {
		rt := stm.New(stm.Config{})
		cfg := serveConfig(t, 2000, nil, int64(i))
		cfg.Arrival = countingArrival{cfg.Arrival, &drawn}
		procs[i] = Proc{
			Name: []string{"first", "second"}[i], Workload: load.NewKV(rt, load.KVConfig{Keys: 100}),
			PoolSize: 2, Seed: int64(i), Runtime: rt, Serve: cfg,
			Durable: &wal.Options{Dir: dir, Policy: wal.FsyncOS},
		}
	}
	g, err := NewGroup(procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = g.Run(2 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "second") {
		t.Fatalf("unopenable log unreported or unnamed: %v", err)
	}
	if n, elapsed := drawn.Load(), time.Since(start); n != 0 || elapsed > time.Second {
		t.Fatalf("%d requests generated over %v before every log was open", n, elapsed)
	}
}

// TestMixedGroup is the paper's batch job beside a service: a closed-loop
// rbtree:rubic stack and an open-loop kv stack under an SLO in one Group.Run.
// Both verify, both report in their own terms, and each tuner saw only its
// own stack: the service's epochs add up to its own completions, which its
// arrival schedule bounds, while the batch job ran orders of magnitude more.
func TestMixedGroup(t *testing.T) {
	specs, err := ParseSpecs("rbtree:rubic,kv/qps=300/slo=250ms")
	if err != nil {
		t.Fatal(err)
	}
	opts := StackOptions{StackFlags: StackFlags{Engine: "tl2", Pool: 2, Seed: 1}, Processes: 2}
	batch, err := specs[0].Proc("batch", opts.For(0))
	if err != nil {
		t.Fatal(err)
	}
	service, err := specs[1].Proc("service", opts.For(1))
	if err != nil {
		t.Fatal(err)
	}
	service.Serve.Epoch = 100 * time.Millisecond
	g, err := NewGroup([]Proc{batch, service}, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.Run(600 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	b, s := results[0], results[1]
	if b.Serve != nil || b.Levels == nil || b.Levels.Len() == 0 || b.Completed == 0 {
		t.Fatalf("batch stack did not report as a closed loop: %+v", b)
	}
	if s.Serve == nil || s.Levels != nil || len(s.Serve.Epochs) < 3 || s.Serve.SLOState == "" {
		t.Fatalf("service stack did not report as an open loop: %+v", s)
	}
	var epochSum uint64
	for _, e := range s.Serve.Epochs {
		epochSum += e.Completed
		if e.Level < 1 || e.Level > 2 {
			t.Errorf("service epoch %d actuated level %d outside its own pool", e.Index, e.Level)
		}
	}
	if s.Completed == 0 || s.Completed != s.Serve.Completed || epochSum > s.Completed || s.Completed > s.Serve.Arrived {
		t.Errorf("service saw work that is not its own: epochs %d, completed %d/%d, arrived %d",
			epochSum, s.Completed, s.Serve.Completed, s.Serve.Arrived)
	}
	if b.Completed < 10*s.Serve.Arrived {
		t.Errorf("batch completed %d, service arrived %d: the closed loop should dwarf a 300 QPS schedule", b.Completed, s.Serve.Arrived)
	}
}
