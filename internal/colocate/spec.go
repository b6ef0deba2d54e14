package colocate

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/load"
	"rubic/internal/stamp"
	"rubic/internal/stamp/workloads"
	"rubic/internal/stm"
)

// StackSpec is the parsed form of one stack description, the only one every
// driver takes:
//
//	workload:policy[@delay][/key=value]...
//
// e.g. "rbtree-ro:rubic@2s", "bank:rubic/adaptive=tl2:backoff+norec:greedy"
// or "kv/qps=800/slo=5ms". qps= makes the stack open-loop: a load.Server
// offers it requests on a seeded arrival schedule whatever it absorbs.
// Without it the stack is closed-loop. The keys:
//
//	qps       offered request rate
//	slo       p99 target, the decision step's SLO stage (open loop only)
//	arrival   constant, poisson (the default), diurnal or burst (open loop only)
//	theta     Zipf skew of a keyed workload's requests, in (0,1) (open loop only)
//	shards    shardedkv's shard count, at least 1 (open loop only; default: the pool)
//	adaptive  '+'-separated engine[:cm] candidates the runtime hot-swaps among
//
// Goroutine mode, rubic-serve and the process-mode agent (internal/mproc)
// all turn it into a Proc through StackSpec.Proc, so a spec means the same
// stack whichever driver runs it.
type StackSpec struct {
	// Workload names a benchmark from internal/stamp/workloads, or one of
	// internal/load's keyed services: kv, ordered, shardedkv.
	Workload string
	// Policy names a controller from core.ByName, or "greedy" for a pinned
	// full-size pool (no controller). An open-loop head may omit it: RUBIC
	// under slo=, greedy without.
	Policy string
	// ArrivalDelay postpones the stack's start relative to the group's.
	ArrivalDelay time.Duration
	// QPS, when positive, is the open-loop stack's offered rate; the other
	// open-loop keys are zero without it.
	QPS     float64
	SLO     time.Duration
	Arrival string
	Theta   float64 // 0: load.DefaultTheta
	Shards  int     // 0: the pool size
	// Adaptive, when non-empty, is the engine/CM candidate list.
	Adaptive string
}

// The ways a key can fail to apply to its stack; errors.Is tells them apart.
var (
	errOutOfRange   = errors.New("out of range")
	errOpenLoopOnly = errors.New("applies only to an open-loop stack (qps=)")
	errShardedOnly  = errors.New("applies only to shardedkv")
	errKeyedOnly    = errors.New("applies only to a keyed workload")
	errNeedsTuner   = errors.New("needs a tuning policy (a greedy closed-loop stack has no tuner)")
	errNeedsRuntime = errors.New("needs one STM runtime (shardedkv's shards each switch their own)")
)

// parseSpec parses one stack description.
func parseSpec(s string) (StackSpec, error) {
	var spec StackSpec
	parts := strings.Split(s, "/")
	head := parts[0]
	if at := strings.IndexByte(head, '@'); at >= 0 {
		d, err := time.ParseDuration(head[at+1:])
		if err == nil && d < 0 {
			err = errOutOfRange
		}
		if err != nil {
			return spec, fmt.Errorf("colocate: bad arrival delay in %q: %w", s, err)
		}
		spec.ArrivalDelay, head = d, head[:at]
	}
	workload, policy, named := strings.Cut(head, ":")
	spec.Workload, spec.Policy = workload, policy
	seen := map[string]bool{}
	for _, opt := range parts[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok || val == "" || seen[key] {
			return spec, fmt.Errorf("colocate: stack %q: option %q (want each key once, as key=value)", s, opt)
		}
		seen[key] = true
		if err := spec.set(key, val); err != nil {
			return spec, fmt.Errorf("colocate: stack %q: %s=: %w", s, key, err)
		}
	}
	open := spec.QPS > 0
	if workload == "" || (named || !open) && policy == "" {
		return spec, fmt.Errorf("colocate: bad stack spec %q (want workload:policy[@delay][/key=value]...)", s)
	}
	for _, key := range []string{"slo", "arrival", "theta", "shards"} {
		if seen[key] && !open {
			return spec, fmt.Errorf("colocate: stack %q: %s= %w", s, key, errOpenLoopOnly)
		}
	}
	if open && spec.Arrival == "" {
		spec.Arrival = "poisson"
	}
	if open && spec.Policy == "" {
		spec.Policy = "greedy"
		if spec.SLO > 0 {
			spec.Policy = "rubic"
		}
	}
	switch greedy := spec.Policy == "greedy"; {
	case spec.Shards != 0 && spec.Workload != "shardedkv":
		return spec, fmt.Errorf("colocate: stack %q: shards= %w", s, errShardedOnly)
	case spec.Adaptive != "" && spec.Workload == "shardedkv":
		return spec, fmt.Errorf("colocate: stack %q: adaptive= %w", s, errNeedsRuntime)
	case greedy && spec.SLO > 0:
		return spec, fmt.Errorf("colocate: stack %q: slo= %w", s, errNeedsTuner)
	case greedy && spec.Adaptive != "" && !open:
		return spec, fmt.Errorf("colocate: stack %q: adaptive= %w", s, errNeedsTuner)
	}
	return spec, nil
}

// set parses one key's value into the spec.
func (s *StackSpec) set(key, val string) (err error) {
	switch key {
	case "qps":
		if s.QPS, err = strconv.ParseFloat(val, 64); err == nil && !(s.QPS > 0 && s.QPS <= math.MaxFloat64) {
			err = errOutOfRange
		}
	case "slo":
		if s.SLO, err = time.ParseDuration(val); err == nil && s.SLO <= 0 {
			err = errOutOfRange
		}
	case "arrival":
		s.Arrival = val
	case "theta":
		// Written so that NaN fails it too.
		if s.Theta, err = strconv.ParseFloat(val, 64); err == nil && !(s.Theta > 0 && s.Theta < 1) {
			err = errOutOfRange
		}
	case "shards":
		if s.Shards, err = strconv.Atoi(val); err == nil && s.Shards < 1 {
			err = errOutOfRange
		}
	case "adaptive":
		s.Adaptive = val
	default:
		err = errors.New("unknown key (want qps, slo, arrival, theta, shards or adaptive; the policy is named in the head)")
	}
	return err
}

// ParseSpecs parses a comma-separated list of stack descriptions; the first
// bad element fails the list.
func ParseSpecs(s string) ([]StackSpec, error) {
	var out []StackSpec
	for _, part := range strings.Split(s, ",") {
		spec, err := parseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// String is the spec in the grammar ParseSpecs reads: ParseSpecs returns s
// again for every s it returned. The process-mode supervisor hands each
// agent its stack this way.
func (s StackSpec) String() string {
	out := s.Workload + ":" + s.Policy
	if s.ArrivalDelay != 0 {
		out += "@" + s.ArrivalDelay.String()
	}
	key := func(k, v string, set bool) {
		if set {
			out += "/" + k + "=" + v
		}
	}
	key("qps", strconv.FormatFloat(s.QPS, 'g', -1, 64), s.QPS != 0)
	key("slo", s.SLO.String(), s.SLO != 0)
	key("arrival", s.Arrival, s.Arrival != "")
	key("theta", strconv.FormatFloat(s.Theta, 'g', -1, 64), s.Theta != 0)
	key("shards", strconv.Itoa(s.Shards), s.Shards != 0)
	key("adaptive", s.Adaptive, s.Adaptive != "")
	return out
}

// Name labels a group's i-th stack (0-based) in results, errors and its log
// directory (WalDir): "P<i+1>-workload-policy", or "P<i+1>-workload/arrival"
// for an open-loop stack. Every driver names its stacks here.
func (s StackSpec) Name(i int) string {
	shape := s.Workload + "-" + s.Policy
	if s.QPS > 0 {
		shape = s.Workload + "/" + s.Arrival
	}
	return "P" + strconv.Itoa(i+1) + "-" + shape
}

// parseEngine maps an engine name to its STM algorithm.
func parseEngine(name string) (stm.Algorithm, error) {
	switch name {
	case "tl2":
		return stm.TL2, nil
	case "norec":
		return stm.NOrec, nil
	}
	return 0, fmt.Errorf("colocate: unknown stm engine %q (want tl2 or norec)", name)
}

// Build assembles the stack: a fresh workload on its own STM runtime (nil
// for shardedkv, whose shards each have one) plus the spec's controller (nil
// for "greedy" — the caller pins the pool instead). poolSize bounds the
// controller's level; processes is the co-located stack count (the
// equalshare policy divides the machine by it).
func (s StackSpec) Build(engine string, poolSize, processes int) (stamp.Workload, *stm.Runtime, core.Controller, error) {
	algo, err := parseEngine(engine)
	if err != nil {
		return nil, nil, nil, err
	}
	if poolSize < 1 {
		return nil, nil, nil, fmt.Errorf("colocate: pool size %d", poolSize)
	}
	cfg := stm.Config{Algorithm: algo}
	var w stamp.Workload
	var rt *stm.Runtime
	switch s.Workload {
	case "kv":
		rt = stm.New(cfg)
		w = load.NewKV(rt, load.KVConfig{})
	case "ordered":
		rt = stm.New(cfg)
		w = load.NewOrdered(rt, load.OrderedConfig{})
	case "shardedkv":
		// Durability needs a single commit critical section; the sharded
		// runtime deliberately has none (stm.ErrCrossShardDurable), so the
		// stack carries no Runtime and NewGroup refuses it a log.
		w = load.NewShardedKV(stm.NewSharded(cmp.Or(s.Shards, poolSize), cfg), load.KVConfig{})
	default:
		if w, rt, err = workloads.New(s.Workload, cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	var ctrl core.Controller
	switch {
	case s.Policy == "greedy":
	case s.Policy == "rubic" && s.QPS > 0:
		// An open-loop stack starts at its full pool: requests arrive whether
		// or not the controller has grown into them.
		ctrl = core.NewRUBIC(core.RUBICConfig{MaxLevel: poolSize, InitialLevel: poolSize})
	default:
		fac, err := core.ByName(s.Policy, poolSize, processes, poolSize)
		if err != nil {
			return nil, nil, nil, err
		}
		ctrl = fac()
	}
	return w, rt, ctrl, nil
}

// StackFlags is the flag group every stack driver binds — rubic-colocate,
// rubic-serve and the process-mode agent — declared once.
type StackFlags struct {
	Engine string // tl2 or norec
	// Pool is every stack's worker count; Seed the group's, from which each
	// stack derives its own (StackOptions.For).
	Pool    int
	Seed    int64
	Durable DurableFlags
}

// Register declares -algo, -pool, -seed and the -durable group on fs.
func (f *StackFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Engine, "algo", "tl2", "stm engine: tl2 or norec")
	fs.IntVar(&f.Pool, "pool", 2*runtime.NumCPU(), "per-stack worker pool size (the maximum level)")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed (every stack's arrivals, keys and pool derive from it)")
	f.Durable.Register(fs)
}

// StackOptions is everything besides the spec that shapes a stack. Goroutine
// mode, rubic-serve and the process-mode agent each fill one for
// StackSpec.Proc, so all of them run the identical Proc by construction.
type StackOptions struct {
	StackFlags
	// Processes is the co-located stack count (the equalshare policy and the
	// health fallback divide the machine by it).
	Processes int
	// Chaos names the fault scenario ("scenario@seed"; empty: none). Child
	// is the stack's index in the group (For sets it) and Incarnation its
	// restart count; both select the chaos schedule.
	Chaos       string
	Child       int
	Incarnation int
}

// For returns the options of a group's i-th stack: its index and its own
// seed, the group's plus i·7919.
func (o StackOptions) For(i int) StackOptions {
	o.Child, o.Seed = i, o.Seed+int64(i)*7919
	return o
}

// closedLoopAdaptWindow is a closed-loop stack's adaptive scoring window:
// short, so probing converges within seconds-scale runs at the 10 ms tick.
// An open-loop stack scores over core's default window of its longer epochs.
const closedLoopAdaptWindow = 2

// Proc assembles the named stack: Build's workload and controller plus the
// wiring every driver shares — the open-loop front end when the spec has
// qps=; one chaos injector for pool, tuner, adaptive handoff and log; the
// health guard on every tuned closed-loop stack; the adaptive stack as the
// tuner's adapter; the log in WalDir(root, name).
func (s StackSpec) Proc(name string, o StackOptions) (Proc, error) {
	w, rt, ctrl, err := s.Build(o.Engine, o.Pool, o.Processes)
	if err != nil {
		return Proc{}, err
	}
	p := Proc{
		Name:         name,
		Workload:     w,
		Controller:   ctrl,
		PoolSize:     o.Pool,
		Seed:         o.Seed,
		ArrivalDelay: s.ArrivalDelay,
		Runtime:      rt,
	}
	adapt := core.AdaptiveConfig{}
	if s.QPS > 0 {
		if p.Serve, err = s.serve(w, o.Seed); err != nil {
			return Proc{}, fmt.Errorf("colocate: %s: %w", name, err)
		}
	} else if ctrl != nil {
		// Degraded telemetry parks the stack at its equal share of the
		// machine — the fair static split — until samples recover.
		p.Health = &core.HealthPolicy{FallbackLevel: o.Pool / max(o.Processes, 1)}
		adapt.Window = closedLoopAdaptWindow
	}
	if o.Chaos != "" {
		scenario, seed, err := fault.ParseScenario(o.Chaos)
		if err != nil {
			return Proc{}, err
		}
		plan, err := fault.PlanFor(scenario, seed, o.Child, o.Incarnation)
		if err != nil {
			return Proc{}, err
		}
		p.Faults = fault.New(plan)
	}
	if s.Adaptive != "" {
		stack, err := newAdaptiveStack(rt, ctrl, s.Adaptive, adapt)
		if err != nil {
			return Proc{}, err
		}
		stack.Faults = p.Faults
		p.Adapter = stack
	}
	if p.Durable, err = o.Durable.Options(name); err != nil {
		return Proc{}, err
	}
	if p.Durable != nil {
		p.Durable.Faults = p.Faults
	}
	return p, nil
}

// serve is an open-loop stack's front end: the arrival schedule, a keyed
// workload's Zipf key draw and the SLO stage, every stream seeded by seed.
func (s StackSpec) serve(w stamp.Workload, seed int64) (*load.Config, error) {
	cfg := &load.Config{}
	var err error
	// A keyed workload says how large its key space is; its requests draw
	// from the Zipfian mix over it.
	if k, ok := w.(interface{ Keys() int }); ok {
		if cfg.Keys, err = load.NewZipf(uint64(k.Keys()), cmp.Or(s.Theta, load.DefaultTheta), seed); err != nil {
			return nil, err
		}
	} else if s.Theta != 0 {
		return nil, fmt.Errorf("theta= %w", errKeyedOnly)
	}
	if cfg.Arrival, err = load.NewArrival(s.Arrival, s.QPS, seed); err != nil {
		return nil, err
	}
	if s.SLO > 0 {
		cfg.SLO = &core.SLOPolicy{TargetP99: s.SLO}
	}
	return cfg, nil
}
