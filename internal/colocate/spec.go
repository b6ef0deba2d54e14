package colocate

import (
	"fmt"
	"strings"
	"time"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/stamp"
	"rubic/internal/stamp/workloads"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// StackSpec is the parsed form of one "workload:policy[@arrivalDelay]"
// stack description. It is the shared currency between the goroutine-mode
// co-location driver (this package's Group) and the process-mode supervisor
// (internal/mproc): both turn it into a Proc through StackSpec.Proc, so
// every spec accepted by one mode runs unchanged in the other.
type StackSpec struct {
	// Workload names a benchmark from internal/stamp/workloads.
	Workload string
	// Policy names a controller from core.ByName, or "greedy" for a pinned
	// full-size pool (no controller).
	Policy string
	// ArrivalDelay postpones the stack's start relative to the group's.
	ArrivalDelay time.Duration
}

// parseSpec parses one "workload:policy[@arrivalDelay]" description.
func parseSpec(s string) (StackSpec, error) {
	var spec StackSpec
	if at := strings.IndexByte(s, '@'); at >= 0 {
		d, err := time.ParseDuration(s[at+1:])
		if err != nil {
			return spec, fmt.Errorf("colocate: bad arrival delay in %q: %w", s, err)
		}
		spec.ArrivalDelay = d
		s = s[:at]
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return spec, fmt.Errorf("colocate: bad stack spec %q (want workload:policy[@delay])", s)
	}
	spec.Workload, spec.Policy = parts[0], parts[1]
	return spec, nil
}

// ParseSpecs parses a comma-separated list of stack descriptions.
func ParseSpecs(s string) ([]StackSpec, error) { return parseList(s, parseSpec) }

// parseList applies one description's parser to each element of a
// comma-separated list; the first bad element fails the list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		spec, err := parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// ParseEngine maps an engine name to its STM algorithm.
func ParseEngine(name string) (stm.Algorithm, error) {
	switch name {
	case "tl2":
		return stm.TL2, nil
	case "norec":
		return stm.NOrec, nil
	}
	return 0, fmt.Errorf("colocate: unknown stm engine %q (want tl2 or norec)", name)
}

// Build assembles the stack: a fresh workload on its own STM runtime plus the
// spec's controller (nil for "greedy" — the caller pins the pool instead).
// poolSize bounds the controller's level; processes is the co-located stack
// count (the equalshare policy divides the machine by it).
func (s StackSpec) Build(engine string, poolSize, processes int) (stamp.Workload, *stm.Runtime, core.Controller, error) {
	algo, err := ParseEngine(engine)
	if err != nil {
		return nil, nil, nil, err
	}
	w, rt, err := workloads.New(s.Workload, stm.Config{Algorithm: algo})
	if err != nil {
		return nil, nil, nil, err
	}
	var ctrl core.Controller
	if s.Policy != "greedy" {
		fac, err := core.ByName(s.Policy, poolSize, processes, poolSize)
		if err != nil {
			return nil, nil, nil, err
		}
		ctrl = fac()
	}
	return w, rt, ctrl, nil
}

// StackOptions is everything besides the spec that shapes a stack. Goroutine
// mode and the process-mode agent each fill one for StackSpec.Proc, so both
// run the identical Proc by construction.
type StackOptions struct {
	Engine string // tl2 or norec
	// Pool is the worker count; Processes the co-located stack count (the
	// equalshare policy and the health fallback divide the machine by it).
	Pool      int
	Processes int
	Seed      int64 // derives the stack's random streams
	// Chaos names the fault scenario ("scenario@seed"; empty: none); the
	// stack's index in the group and its restart count select its schedule.
	Chaos       string
	Child       int
	Incarnation int
	// Adaptive, when non-empty, is the '+'-separated engine/CM candidate
	// list the runtime hot-swaps among; Window the policy's scoring window in
	// epochs (0: stackAdaptWindow).
	Adaptive string
	Window   int
	// Durable, when non-nil, gives the stack a write-ahead log.
	Durable *wal.Options
}

// stackAdaptWindow is a closed-loop stack's default adaptive scoring window:
// short, so probing converges within seconds-scale runs at the 10 ms tick.
const stackAdaptWindow = 2

// Proc assembles the named stack: Build's workload and controller plus the
// wiring every driver shares — one chaos injector for pool, tuner, adaptive
// handoff and log; the health guard on every tuned stack; the adaptive stack
// as the tuner's adapter.
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
	if ctrl != nil {
		// Degraded telemetry parks the stack at its equal share of the
		// machine — the fair static split — until samples recover.
		p.Health = &core.HealthPolicy{FallbackLevel: o.Pool / max(o.Processes, 1)}
	}
	if o.Adaptive != "" {
		if o.Window <= 0 {
			o.Window = stackAdaptWindow
		}
		stack, err := newAdaptiveStack(rt, ctrl, o.Adaptive, core.AdaptiveConfig{Window: o.Window})
		if err != nil {
			return Proc{}, err
		}
		stack.Faults = p.Faults
		p.Adapter = stack
	}
	if o.Durable != nil {
		d := *o.Durable
		d.Faults = p.Faults
		p.Durable = &d
	}
	return p, nil
}
