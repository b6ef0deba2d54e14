package colocate

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/stamp/workloads"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// ServeProc describes one co-located open-loop serving stack: a fully
// assembled load.Config plus a name. Unlike Proc, there is no arrival delay —
// open-loop stacks express their load shape through the arrival process
// itself (a diurnal or burst generator covers the staggered-arrival story).
type ServeProc struct {
	// Name labels the stack in results.
	Name string
	// Config is the stack's open-loop configuration (see load.Config); each
	// stack owns its workload, arrival schedule and controller, so co-located
	// stacks may hold different SLOs.
	Config load.Config
	// Durable, when non-nil, opens (or recovers) a write-ahead log in
	// Durable.Dir once the server has populated the workload, attaches it to
	// Runtime as the commit sink, and closes it after the run (see
	// AttachDurability). The workload must implement wal.DurableState and
	// Runtime must be the stack's own runtime.
	Durable *wal.Options
	// Runtime is the stack's STM runtime; required only when Durable is set.
	Runtime *stm.Runtime
}

// ServeResult is one stack's outcome.
type ServeResult struct {
	Name string
	load.Result
	// Wal summarizes the stack's durability outcome (nil without Durable).
	Wal *WalResult
}

// ServeGroup is a set of co-located open-loop serving stacks. As with Group,
// the stacks share nothing but the CPU: each decision step observes only its
// own stack's latency and decides unilaterally.
type ServeGroup struct {
	names   []string
	servers []*load.Server
	logs    []*wal.Log
}

// NewServeGroup validates every stack's configuration up front, so a bad
// spec fails before any load is generated.
func NewServeGroup(procs []ServeProc) (*ServeGroup, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("colocate: no serving stacks")
	}
	g := &ServeGroup{logs: make([]*wal.Log, len(procs))}
	seen := map[string]struct{}{}
	for i, p := range procs {
		if p.Name == "" {
			return nil, fmt.Errorf("colocate: serving stack %d has no name", i)
		}
		if _, dup := seen[p.Name]; dup {
			return nil, fmt.Errorf("colocate: duplicate serving stack name %q", p.Name)
		}
		seen[p.Name] = struct{}{}
		if p.Durable != nil {
			// The workload populates inside load.Server.Run (Setup), so the
			// log can only open — and replay a recovered prefix into the
			// freshly registered locations — through the server's after-setup
			// hook, in the window before any traffic exists.
			idx, workload, rt, opts := i, p.Config.Workload, p.Runtime, *p.Durable
			p.Config.AfterSetup = func() error {
				l, err := AttachDurability(workload, rt, opts)
				if err != nil {
					return fmt.Errorf("durability: %w", err)
				}
				g.logs[idx] = l
				return nil
			}
		}
		s, err := load.NewServer(p.Config)
		if err != nil {
			return nil, fmt.Errorf("colocate: stack %s: %w", p.Name, err)
		}
		g.names = append(g.names, p.Name)
		g.servers = append(g.servers, s)
	}
	return g, nil
}

// Run drives every stack concurrently for the given duration and returns
// per-stack results in input order. Each server verifies its own workload;
// the first failure is returned, with every stack's results intact (a
// failed stack's partial Result is still populated by load.Server.Run).
func (g *ServeGroup) Run(duration time.Duration) ([]ServeResult, error) {
	results := make([]ServeResult, len(g.servers))
	errs := make([]error, len(g.servers))
	var wg sync.WaitGroup
	for i := range g.servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.servers[i].Run(duration)
			results[i] = ServeResult{Name: g.names[i], Result: res}
			if err != nil {
				errs[i] = fmt.Errorf("colocate: stack %s: %w", g.names[i], err)
			}
		}(i)
	}
	wg.Wait()
	// Every server has drained, so no commit can still publish: close the
	// logs the way closed-loop stacks do. A log that lost durability mid-run
	// surfaces as an explicit flag, not a run failure.
	for i, l := range g.logs {
		if l != nil {
			results[i].Wal = closeLog(l)
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ServeSpec is the parsed form of one serving-stack description:
//
//	workload[/key=value]...
//
// e.g. "kv/qps=800/slo=5ms" or "bank/qps=200/arrival=diurnal/policy=rubic".
// Keys: qps (required), slo (p99 target duration; 0/absent disables the
// guard), arrival (constant|poisson|diurnal|burst; default poisson), policy
// (slo|rubic|fixed; default slo when a target is set, fixed otherwise),
// theta (Zipf skew for keyed workloads; default load.DefaultTheta),
// adaptive (a '+'-separated engine:cm candidate list, e.g.
// "tl2:backoff+norec:greedy" — ':' because '/' delimits serve options; an
// adaptive stack hot-swaps the runtime among the candidates and overrides
// the -engine flag's static choice).
type ServeSpec struct {
	Workload string
	Arrival  string
	QPS      float64
	SLO      time.Duration
	Policy   string
	Theta    float64
	Adaptive string
	// Shards is the shard count for range-sharded workloads ("shardedkv");
	// 0 defaults to the worker count at build time.
	Shards int
}

// ParseServeSpec parses one serving-stack description.
func ParseServeSpec(s string) (ServeSpec, error) {
	spec := ServeSpec{Arrival: "poisson", Theta: load.DefaultTheta}
	parts := strings.Split(s, "/")
	if parts[0] == "" {
		return spec, fmt.Errorf("colocate: serve spec %q has no workload", s)
	}
	spec.Workload = parts[0]
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok || val == "" {
			return spec, fmt.Errorf("colocate: serve spec option %q (want key=value)", opt)
		}
		var err error
		switch key {
		case "qps":
			spec.QPS, err = strconv.ParseFloat(val, 64)
		case "slo":
			spec.SLO, err = time.ParseDuration(val)
		case "arrival":
			spec.Arrival = val
		case "policy":
			spec.Policy = val
		case "theta":
			spec.Theta, err = strconv.ParseFloat(val, 64)
		case "adaptive":
			spec.Adaptive = val
		case "shards":
			spec.Shards, err = strconv.Atoi(val)
		default:
			err = fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return spec, fmt.Errorf("colocate: serve spec %q: %s: %v", s, key, err)
		}
	}
	switch spec.Normalize() {
	case "qps":
		return spec, fmt.Errorf("colocate: serve spec %q needs qps=<rate>", s)
	case "slo":
		return spec, fmt.Errorf("colocate: serve spec %q: policy=slo needs slo=<target>", s)
	}
	return spec, nil
}

// Normalize defaults the policy (slo when a target is set, fixed otherwise)
// and names the key a runnable spec still lacks: "qps" without a positive
// rate, "slo" for policy=slo without a target, "" when complete. The wording
// is the caller's — spec keys here, flags in rubic-serve.
func (s *ServeSpec) Normalize() (missing string) {
	if s.QPS <= 0 {
		return "qps"
	}
	if s.Policy == "" {
		s.Policy = "fixed"
		if s.SLO > 0 {
			s.Policy = "slo"
		}
	}
	if s.Policy == "slo" && s.SLO <= 0 {
		return "slo"
	}
	return ""
}

// ParseServeSpecs parses a comma-separated list of serving-stack
// descriptions ("kv/qps=800/slo=5ms,bank/qps=200/slo=20ms").
func ParseServeSpecs(s string) ([]ServeSpec, error) {
	var out []ServeSpec
	for _, part := range strings.Split(s, ",") {
		spec, err := ParseServeSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// Build assembles the stack on its own STM runtime. workers bounds the
// parallelism; seed derives every random stream (arrival, keys, pool), so
// the same spec at the same seed offers the same schedule. The stack name
// carries the spec's shape ("kv/poisson") for the results table; callers
// dedupe with an index when co-locating identical specs.
func (s ServeSpec) Build(engine string, workers int, seed int64) (ServeProc, error) {
	var proc ServeProc
	algo, err := ParseEngine(engine)
	if err != nil {
		return proc, err
	}
	cfg := load.Config{Workers: workers, Seed: seed}
	var rt *stm.Runtime
	keys := 0 // a keyed workload's key-space size
	switch s.Workload {
	case "kv":
		rt = stm.New(stm.Config{Algorithm: algo})
		kv := load.NewKV(rt, load.KVConfig{})
		cfg.Workload, keys = kv, kv.Keys()
	case "ordered":
		rt = stm.New(stm.Config{Algorithm: algo})
		ord := load.NewOrdered(rt, load.OrderedConfig{})
		cfg.Workload, keys = ord, ord.Keys()
	case "shardedkv":
		if s.Adaptive != "" {
			return proc, fmt.Errorf("colocate: adaptive engine switching is per-runtime; use the sharded runtime's own SwitchEngine instead of adaptive= with shardedkv")
		}
		shards := s.Shards
		if shards <= 0 {
			shards = workers
		}
		// Durability needs a single commit critical section; the sharded
		// runtime deliberately has none (stm.ErrCrossShardDurable), so the
		// stack carries no Runtime and AttachDurability rejects it.
		skv := load.NewShardedKV(stm.NewSharded(shards, stm.Config{Algorithm: algo}), load.KVConfig{})
		cfg.Workload, keys = skv, skv.Keys()
	default:
		cfg.Workload, rt, err = workloads.New(s.Workload, stm.Config{Algorithm: algo})
		if err != nil {
			return proc, err
		}
	}
	if keys > 0 {
		if cfg.Keys, err = load.NewZipf(uint64(keys), s.Theta, seed); err != nil {
			return proc, err
		}
	}
	cfg.Arrival, err = load.NewArrival(s.Arrival, s.QPS, seed)
	if err != nil {
		return proc, err
	}
	switch s.Policy {
	case "slo":
		cfg.SLO = &core.SLOPolicy{TargetP99: s.SLO}
		fallthrough // the SLO stage cuts the same base controller policy=rubic tunes
	case "rubic":
		cfg.Controller = core.NewRUBIC(core.RUBICConfig{MaxLevel: workers, InitialLevel: workers})
	case "fixed":
		// pinned at workers
	default:
		return proc, fmt.Errorf("colocate: serve policy %q (want slo, rubic or fixed)", s.Policy)
	}
	if s.Adaptive != "" {
		// Engine handoffs re-anchor the base controller the server's decision
		// step drives (nil under policy=fixed: nothing to re-anchor).
		if cfg.Adapter, err = newAdaptiveStack(rt, cfg.Controller, s.Adaptive, core.AdaptiveConfig{}); err != nil {
			return proc, err
		}
	}
	proc.Name = s.Workload + "/" + s.Arrival
	proc.Config = cfg
	proc.Runtime = rt
	return proc, nil
}
