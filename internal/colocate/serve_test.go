package colocate

import (
	"reflect"
	"testing"
	"time"

	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/stm"
)

func serveKVProc(t *testing.T, name string, qps float64, slo *core.SLOPolicy, seed int64) Proc {
	t.Helper()
	rt := stm.New(stm.Config{})
	kv := load.NewKV(rt, load.KVConfig{Keys: 300})
	cfg := serveConfig(t, qps, slo, seed)
	var err error
	if cfg.Keys, err = load.NewZipf(uint64(kv.Keys()), load.DefaultTheta, seed); err != nil {
		t.Fatal(err)
	}
	return Proc{Name: name, Workload: kv, PoolSize: 3, Seed: seed, Runtime: rt, Serve: cfg}
}

// TestServeGroupDifferentSLOs is the co-location contract for open-loop
// stacks: two stacks with different p99 targets run side by side, and each
// guard judges only its own stack — the generous SLO ends meeting while the
// unreachable one is forced to cut, in the same process at the same time.
func TestServeGroupDifferentSLOs(t *testing.T) {
	procs := []Proc{
		serveKVProc(t, "lenient", 300, &core.SLOPolicy{TargetP99: 250 * time.Millisecond}, 41),
		serveKVProc(t, "strict", 300, &core.SLOPolicy{TargetP99: time.Nanosecond, BreachAfter: 1}, 43),
	}
	g, err := NewGroup(procs, 0)
	if err != nil {
		t.Fatal(err)
	}
	results, err := g.Run(900 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Name != "lenient" || results[1].Name != "strict" {
		t.Fatalf("results out of input order: %v, %v", results[0].Name, results[1].Name)
	}
	lenient, strict := results[0].Serve, results[1].Serve
	if lenient.SLOState != "meeting" || lenient.SLO.Cuts != 0 {
		t.Fatalf("lenient stack %q with %d cuts (%+v), want meeting with none", lenient.SLOState, lenient.SLO.Cuts, lenient.SLO)
	}
	if strict.SLO.Cuts == 0 {
		t.Fatalf("strict stack's unreachable SLO produced no cuts: %+v", strict.SLO)
	}
	for _, r := range results {
		if r.Serve.Completed == 0 {
			t.Fatalf("stack %s served nothing", r.Name)
		}
	}
}

func TestServeGroupValidation(t *testing.T) {
	if _, err := NewGroup(nil, 0); err == nil {
		t.Fatal("empty group accepted")
	}
	p := serveKVProc(t, "a", 100, nil, 1)
	if _, err := NewGroup([]Proc{p, serveKVProc(t, "a", 100, nil, 2)}, 0); err == nil {
		t.Fatal("duplicate names accepted")
	}
	bad := p
	bad.Name = ""
	if _, err := NewGroup([]Proc{bad}, 0); err == nil {
		t.Fatal("unnamed stack accepted")
	}
	bad = p
	bad.PoolSize = 0
	bad.Name = "b"
	if _, err := NewGroup([]Proc{bad}, 0); err == nil {
		t.Fatal("invalid stack config accepted")
	}
}

// TestParseServeSpecs: an open-loop head may leave the policy out — RUBIC
// under an SLO, pinned without one — and the arrival process defaults to
// Poisson; an explicit head is taken as written.
func TestParseServeSpecs(t *testing.T) {
	specs, err := ParseSpecs("kv/qps=800/slo=5ms,bank:rubic/qps=200/arrival=diurnal,kv/qps=100")
	if err != nil {
		t.Fatal(err)
	}
	want := []StackSpec{
		{Workload: "kv", Policy: "rubic", QPS: 800, SLO: 5 * time.Millisecond, Arrival: "poisson"},
		{Workload: "bank", Policy: "rubic", QPS: 200, Arrival: "diurnal"},
		{Workload: "kv", Policy: "greedy", QPS: 100, Arrival: "poisson"},
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
}

// TestServeSpecBuild is the conversion table of the merge: every serving
// spec the parent revision's tests, README and EXPERIMENTS.md wrote in the
// ServeSpec grammar (flag forms included), rewritten in the one grammar,
// builds the Proc ServeSpec.Build wired at 687f625 — controller and initial
// level, SLO target, arrival process (its first gap pins type, rate and
// seed), θ and the key space (the first draws pin both), adaptive
// candidates, shard count (in the workload's name), pool and seed. The
// wanted values were recorded from the parent, pool 4, seed 7, the i-th
// stack of a group seeded as rubic-serve -stacks seeded it.
func TestServeSpecBuild(t *testing.T) {
	kv := "kv(keys=10000,read=80%)"
	hot := []uint64{963, 2228, 9} // DefaultTheta's first draws at seed 7
	for _, tc := range []struct {
		parent, spec string
		i            int
		workload     string
		ctrl         string // "" for a pinned stack
		init         float64
		slo          time.Duration
		gap          time.Duration
		keys         []uint64
		cands        []string
	}{
		{"kv/qps=800/slo=5ms", "kv/qps=800/slo=5ms", 0, kv, "rubic", 4, 5 * time.Millisecond, 1861440, hot, nil},
		{"bank/qps=200/arrival=diurnal/policy=rubic/theta=0.5", "bank:rubic/qps=200/arrival=diurnal", 1, "bank(a=1024,audit=10%)", "rubic", 4, 0, 5420217, nil, nil},
		{"kv/qps=100 (policy fixed)", "kv/qps=100", 0, kv, "", 0, 0, 14891520, hot, nil},
		{"kv/qps=100/slo=10ms", "kv/qps=100/slo=10ms", 0, kv, "rubic", 4, 10 * time.Millisecond, 14891520, hot, nil},
		{"bank/qps=50/policy=rubic", "bank:rubic/qps=50", 0, "bank(a=1024,audit=10%)", "rubic", 4, 0, 29783040, nil, nil},
		{"ordered/qps=100/slo=10ms", "ordered/qps=100/slo=10ms", 0, "ordered(keys=10000,read=70%,scan=20%x64)", "rubic", 4, 10 * time.Millisecond, 14891520, hot, nil},
		{"shardedkv/qps=100/shards=4", "shardedkv/qps=100/shards=4", 0, "shardedkv(shards=4,keys=10000,read=80%)", "", 0, 0, 14891520, hot, nil},
		{"shardedkv/qps=100 (shards: the pool)", "shardedkv/qps=100", 0, "shardedkv(shards=4,keys=10000,read=80%)", "", 0, 0, 14891520, hot, nil},
		{"kv/qps=400/slo=5ms/adaptive=tl2:backoff+norec:greedy", "kv/qps=400/slo=5ms/adaptive=tl2:backoff+norec:greedy", 0, kv, "rubic", 4, 5 * time.Millisecond, 3722880, hot, []string{"tl2/backoff", "norec/greedy"}},
		{"kv/qps=300/slo=250ms", "kv/qps=300/slo=250ms", 0, kv, "rubic", 4, 250 * time.Millisecond, 4963840, hot, nil},
		{"kv/qps=200/slo=250ms (1st of 2)", "kv/qps=200/slo=250ms", 0, kv, "rubic", 4, 250 * time.Millisecond, 7445760, hot, nil},
		{"kv/qps=200/slo=250ms (2nd of 2)", "kv/qps=200/slo=250ms", 1, kv, "rubic", 4, 250 * time.Millisecond, 5420217, []uint64{0, 656, 1}, nil},
		{"kv/qps=200 (2nd of 2)", "kv/qps=200", 1, kv, "", 0, 0, 5420217, []uint64{0, 656, 1}, nil},
		{"kv/qps=200/slo=50ms (2nd of 2)", "kv/qps=200/slo=50ms", 1, kv, "rubic", 4, 50 * time.Millisecond, 5420217, []uint64{0, 656, 1}, nil},
		{"kv/qps=800/slo=5ms/adaptive=tl2:backoff+norec:greedy", "kv/qps=800/slo=5ms/adaptive=tl2:backoff+norec:greedy", 0, kv, "rubic", 4, 5 * time.Millisecond, 1861440, hot, []string{"tl2/backoff", "norec/greedy"}},
		{"-workload kv -arrival poisson -qps 800 -slo-p99 5ms", "kv/qps=800/slo=5ms", 0, kv, "rubic", 4, 5 * time.Millisecond, 1861440, hot, nil},
		{"-qps 200 -slo-p99 5ms -find-max", "kv/qps=200/slo=5ms", 0, kv, "rubic", 4, 5 * time.Millisecond, 7445760, hot, nil},
		{"-qps 300 -slo-p99 5ms -durable", "kv/qps=300/slo=5ms", 0, kv, "rubic", 4, 5 * time.Millisecond, 4963840, hot, nil},
		{"-workers 4 -slo-p99 1ms -find-max -qps 50000", "kv/qps=50000/slo=1ms", 0, kv, "rubic", 4, time.Millisecond, 29783, hot, nil},
		{"-arrival burst -qps 500 -policy rubic", "kv:rubic/qps=500/arrival=burst", 0, kv, "rubic", 4, 0, 372288, hot, nil},
		// Not in the parent's docs: the keyed θ and constant-arrival row.
		{"kv/qps=100/theta=0.5/arrival=constant", "kv/qps=100/theta=0.5/arrival=constant", 0, kv, "", 0, 0, 10 * time.Millisecond, []uint64{5772, 7143, 886}, nil},
	} {
		specs, err := ParseSpecs(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		group := StackOptions{StackFlags: StackFlags{Engine: "tl2", Pool: 4, Seed: 7}, Processes: 2}
		p, err := specs[0].Proc(specs[0].Name(tc.i), group.For(tc.i))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		var ctrl string
		var init float64
		if p.Controller != nil {
			ctrl, init = p.Controller.Name(), p.Controller.(core.Resumable).ExportState().Level
		}
		var slo time.Duration
		if p.Serve.SLO != nil {
			slo = p.Serve.SLO.TargetP99
		}
		var keys []uint64
		for j := 0; p.Serve.Keys != nil && j < 3; j++ {
			keys = append(keys, p.Serve.Keys.Next())
		}
		var cands []string
		if a, ok := p.Adapter.(*AdaptiveStack); ok {
			cands = a.policy.Candidates()
		}
		gap := p.Serve.Arrival.Next()
		if got := p.Workload.Name(); got != tc.workload || ctrl != tc.ctrl || init != tc.init || slo != tc.slo ||
			gap != tc.gap || !reflect.DeepEqual(keys, tc.keys) || !reflect.DeepEqual(cands, tc.cands) ||
			p.PoolSize != 4 || p.Seed != 7+int64(tc.i)*7919 || p.Health != nil {
			t.Errorf("%s (was %s) built %s ctrl %q@%v slo %v gap %v keys %v cands %v pool %d seed %d health %v",
				tc.spec, tc.parent, got, ctrl, init, slo, gap, keys, cands, p.PoolSize, p.Seed, p.Health)
		}
	}
}
