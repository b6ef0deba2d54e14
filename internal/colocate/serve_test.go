package colocate

import (
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

func TestParseServeSpecs(t *testing.T) {
	specs, err := ParseServeSpecs("kv/qps=800/slo=5ms,bank/qps=200/arrival=diurnal/policy=rubic/theta=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(specs))
	}
	a, b := specs[0], specs[1]
	if a.Workload != "kv" || a.QPS != 800 || a.SLO != 5*time.Millisecond || a.Policy != "slo" || a.Arrival != "poisson" {
		t.Fatalf("spec a = %+v (policy must default to slo when a target is set)", a)
	}
	if a.Theta != load.DefaultTheta {
		t.Fatalf("spec a theta %v, want default %v", a.Theta, load.DefaultTheta)
	}
	if b.Workload != "bank" || b.Arrival != "diurnal" || b.Policy != "rubic" || b.SLO != 0 || b.Theta != 0.5 {
		t.Fatalf("spec b = %+v", b)
	}
	if c, err := parseServeSpec("kv/qps=100"); err != nil || c.Policy != "fixed" {
		t.Fatalf("no-SLO spec: %+v, %v (policy must default to fixed)", c, err)
	}

	for _, bad := range []string{
		"",                      // no workload
		"kv",                    // no qps
		"kv/qps=0",              // zero qps
		"kv/qps",                // option without value
		"kv/qps=800/warp=1",     // unknown option
		"kv/qps=800/slo=fast",   // unparsable duration
		"kv/qps=800/policy=slo", // slo policy without a target
	} {
		if _, err := parseServeSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestServeSpecBuild(t *testing.T) {
	spec, err := parseServeSpec("kv/qps=100/slo=10ms")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := spec.Build("tl2", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Name != "kv/poisson" {
		t.Fatalf("proc name %q", proc.Name)
	}
	cfg := proc.Serve
	if cfg.Keys == nil || cfg.SLO == nil || cfg.SLO.TargetP99 != 10*time.Millisecond || proc.PoolSize != 4 {
		t.Fatalf("built config missing pieces: keys=%v slo=%+v workers=%d", cfg.Keys != nil, cfg.SLO, proc.PoolSize)
	}
	if _, ok := proc.Workload.(load.Keyed); !ok {
		t.Fatal("kv workload must be keyed")
	}

	// Unkeyed stamp workloads build too — they serve through the Task path.
	spec, err = parseServeSpec("bank/qps=50/policy=rubic")
	if err != nil {
		t.Fatal(err)
	}
	proc, err = spec.Build("norec", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if proc.Controller == nil || proc.Serve.SLO != nil || proc.Serve.Keys != nil {
		t.Fatalf("rubic-policy bank stack built wrong: %+v", proc)
	}

	// The keyed ordered-index and range-sharded workloads build too.
	spec, err = parseServeSpec("ordered/qps=100/slo=10ms")
	if err != nil {
		t.Fatal(err)
	}
	proc, err = spec.Build("tl2", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proc.Workload.(load.Keyed); !ok || proc.Serve.Keys == nil {
		t.Fatal("ordered workload must be keyed with a Zipf generator")
	}
	spec, err = parseServeSpec("shardedkv/qps=100/shards=4")
	if err != nil {
		t.Fatal(err)
	}
	proc, err = spec.Build("tl2", 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := proc.Workload.(load.Keyed); !ok {
		t.Fatal("shardedkv workload must be keyed")
	}
	if proc.Runtime != nil {
		t.Fatal("shardedkv stack must not carry a single runtime (no durability)")
	}
	spec.Adaptive = "tl2:backoff+norec:greedy"
	if _, err := spec.Build("tl2", 2, 7); err == nil {
		t.Fatal("adaptive shardedkv accepted; engine hot-swap is per-runtime")
	}

	if _, err := spec.Build("warp-stm", 2, 7); err == nil {
		t.Fatal("unknown engine accepted")
	}
	spec.Policy = "entropy"
	if _, err := spec.Build("tl2", 2, 7); err == nil {
		t.Fatal("unknown policy accepted")
	}
	spec.Workload, spec.Policy = "warpload", "fixed"
	if _, err := spec.Build("tl2", 2, 7); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
