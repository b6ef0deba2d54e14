package colocate

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/stamp/workloads"
	"rubic/internal/stm"
)

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

// parseServeSpec parses one serving-stack description.
func parseServeSpec(s string) (ServeSpec, error) {
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
func ParseServeSpecs(s string) ([]ServeSpec, error) { return parseList(s, parseServeSpec) }

// Build assembles the serving stack on its own STM runtime. workers bounds
// the parallelism; seed derives every random stream (arrival, keys, pool), so
// the same spec at the same seed offers the same schedule. The stack name
// carries the spec's shape ("kv/poisson") for the results table; callers
// dedupe with an index when co-locating identical specs.
func (s ServeSpec) Build(engine string, workers int, seed int64) (Proc, error) {
	proc := Proc{Name: s.Workload + "/" + s.Arrival, PoolSize: workers, Seed: seed}
	algo, err := ParseEngine(engine)
	if err != nil {
		return proc, err
	}
	cfg := &load.Config{}
	switch s.Workload {
	case "kv":
		proc.Runtime = stm.New(stm.Config{Algorithm: algo})
		proc.Workload = load.NewKV(proc.Runtime, load.KVConfig{})
	case "ordered":
		proc.Runtime = stm.New(stm.Config{Algorithm: algo})
		proc.Workload = load.NewOrdered(proc.Runtime, load.OrderedConfig{})
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
		// stack carries no Runtime and NewGroup refuses it a log.
		proc.Workload = load.NewShardedKV(stm.NewSharded(shards, stm.Config{Algorithm: algo}), load.KVConfig{})
	default:
		proc.Workload, proc.Runtime, err = workloads.New(s.Workload, stm.Config{Algorithm: algo})
		if err != nil {
			return proc, err
		}
	}
	// A keyed workload says how large its key space is; its requests draw
	// from the Zipfian mix over it.
	if k, ok := proc.Workload.(interface{ Keys() int }); ok {
		if cfg.Keys, err = load.NewZipf(uint64(k.Keys()), s.Theta, seed); err != nil {
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
		proc.Controller = core.NewRUBIC(core.RUBICConfig{MaxLevel: workers, InitialLevel: workers})
	case "fixed":
		// pinned at workers
	default:
		return proc, fmt.Errorf("colocate: serve policy %q (want slo, rubic or fixed)", s.Policy)
	}
	if s.Adaptive != "" {
		// Engine handoffs re-anchor the base controller the server's decision
		// step drives (nil under policy=fixed: nothing to re-anchor).
		if proc.Adapter, err = newAdaptiveStack(proc.Runtime, proc.Controller, s.Adaptive, core.AdaptiveConfig{}); err != nil {
			return proc, err
		}
	}
	proc.Serve = cfg
	return proc, nil
}
