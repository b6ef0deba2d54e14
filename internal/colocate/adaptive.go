package colocate

import (
	"fmt"
	"strings"
	"sync"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/stm"
)

// adaptiveCandidate is one selectable engine/contention-manager pairing.
// The CM is a constructor, not an instance: every actuation installs a
// fresh manager so per-manager state never leaks between reigns.
type adaptiveCandidate struct {
	name   string
	engine stm.Algorithm
	cm     func() stm.ContentionManager
}

// parseCM resolves a contention-manager name to a constructor.
func parseCM(name string) (func() stm.ContentionManager, error) {
	switch name {
	case "backoff", "":
		return func() stm.ContentionManager { return stm.BackoffCM{} }, nil
	case "suicide":
		return func() stm.ContentionManager { return stm.SuicideCM{} }, nil
	case "greedy":
		return func() stm.ContentionManager { return stm.GreedyCM{} }, nil
	case "two-phase", "twophase":
		return func() stm.ContentionManager { return stm.TwoPhaseCM{} }, nil
	case "karma":
		return func() stm.ContentionManager { return stm.KarmaCM{} }, nil
	case "polka":
		return func() stm.ContentionManager { return stm.PolkaCM{} }, nil
	}
	return nil, fmt.Errorf("colocate: unknown contention manager %q (want backoff, suicide, greedy, two-phase, karma or polka)", name)
}

// ParseAdaptive parses a '+'-separated candidate list, each candidate an
// engine with an optional contention manager after a ':' —
// "tl2:backoff+norec:greedy", the value of a stack spec's adaptive= key. The
// CM defaults to backoff. Candidates are named engine/cm.
func ParseAdaptive(spec string) ([]adaptiveCandidate, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("colocate: empty adaptive spec")
	}
	var out []adaptiveCandidate
	seen := map[string]struct{}{}
	for _, part := range strings.Split(spec, "+") {
		part = strings.TrimSpace(part)
		engineName, cmName, _ := strings.Cut(part, ":")
		engine, err := parseEngine(engineName)
		if err != nil {
			return nil, fmt.Errorf("colocate: adaptive candidate %q: %w", part, err)
		}
		cm, err := parseCM(cmName)
		if err != nil {
			return nil, fmt.Errorf("colocate: adaptive candidate %q: %w", part, err)
		}
		if cmName == "" {
			cmName = "backoff"
		}
		name := engine.String() + "/" + cmName
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("colocate: duplicate adaptive candidate %q", name)
		}
		seen[name] = struct{}{}
		out = append(out, adaptiveCandidate{name: name, engine: engine, cm: cm})
	}
	return out, nil
}

// AdaptiveStack binds a core.AdaptivePolicy to a live stm.Runtime and
// (optionally) the stack's base parallelism controller — the one its Tuner
// owns. It implements core.Adapter: each epoch it samples the runtime's
// conflict profile, feeds the policy, and actuates any candidate change —
// the CM immediately, the engine through the runtime's quiesce-and-switch
// barrier. On an engine handoff it re-anchors the controller from its own
// exported state (Tuner.Step drives the adapter last, so an SLO cut earlier
// in the same epoch is already in it — never resurrected) with a zero growth
// epoch: the new engine restarts the cubic round count, just as a process
// restore does.
type AdaptiveStack struct {
	rt     *stm.Runtime
	policy *core.AdaptivePolicy
	cands  []adaptiveCandidate

	// Faults drives the adapt.handoff injection point; OnHandoffCrash, when
	// both are set and the point fires, is invoked mid-handoff (the mproc
	// agent exits the process there). Both are set before Start-equivalent
	// use and never mutated concurrently.
	Faults         *fault.Injector
	OnHandoffCrash func()

	// ctrl is re-anchored at engine handoffs; nil or not Resumable: nothing
	// to re-anchor.
	ctrl core.Controller

	mu       sync.Mutex
	prev     stm.Stats
	handoffs uint64
}

// newAdaptiveStack parses spec, builds the policy and actuates the first
// candidate on rt. ctrl may be nil (no controller to re-anchor).
// cfg.Candidates is overwritten with the parsed candidate names.
func newAdaptiveStack(rt *stm.Runtime, ctrl core.Controller, spec string, cfg core.AdaptiveConfig) (*AdaptiveStack, error) {
	cands, err := ParseAdaptive(spec)
	if err != nil {
		return nil, err
	}
	cfg.Candidates = make([]string, len(cands))
	for i, c := range cands {
		cfg.Candidates[i] = c.name
	}
	policy, err := core.NewAdaptivePolicy(cfg)
	if err != nil {
		return nil, err
	}
	a := &AdaptiveStack{rt: rt, policy: policy, cands: cands, ctrl: ctrl, prev: rt.Stats()}
	a.actuate(0)
	return a, nil
}

// Handoffs reports completed engine handoffs.
func (a *AdaptiveStack) Handoffs() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.handoffs
}

// State exports the policy's resumable state (for the telemetry stream).
func (a *AdaptiveStack) State() core.AdaptiveState { return a.policy.State() }

// Restore adopts a predecessor's policy state and actuates its candidate,
// so a restarted agent resumes on the stack its predecessor had settled on
// instead of re-probing from scratch.
func (a *AdaptiveStack) Restore(st core.AdaptiveState) bool {
	if !a.policy.Restore(st) {
		return false
	}
	a.actuate(a.policy.Current())
	return true
}

// Epoch implements core.Adapter: called by the decision step once per epoch,
// after the level for the epoch is actuated.
func (a *AdaptiveStack) Epoch(o core.Observation) {
	a.mu.Lock()
	cur := a.rt.Stats()
	prof := stm.ProfileBetween(a.prev, cur)
	a.prev = cur
	a.mu.Unlock()
	dec := a.policy.Observe(core.AdaptiveSignal{
		Tput:           o.Tput,
		AbortRatio:     prof.AbortRatio,
		MeanReadSet:    prof.MeanReadSet,
		MeanWriteSet:   prof.MeanWriteSet,
		ConflictDegree: prof.ConflictDegree,
	})
	if dec.Switched {
		a.actuate(dec.Candidate)
	}
}

// actuate installs candidate i: the contention manager always (immediate,
// no drain), the engine only when it differs (stop-the-world handoff).
func (a *AdaptiveStack) actuate(i int) {
	c := a.cands[i]
	a.rt.SetContentionManager(c.cm())
	if a.rt.Algorithm() == c.engine {
		return
	}
	if a.Faults.Fire(fault.HandoffCrash) && a.OnHandoffCrash != nil {
		a.OnHandoffCrash()
	}
	a.rt.SwitchEngine(c.engine)
	if ctrl, ok := a.ctrl.(core.Resumable); ok {
		// The decision step runs the adapter after the epoch's decision, so
		// a cut this epoch is in the exported state and survives the restore.
		// Epoch is left zero deliberately: a new engine restarts the cubic
		// round count while keeping the learned level and anchor.
		st := ctrl.ExportState()
		ctrl.RestoreState(core.TuningState{Level: st.Level, WMax: st.WMax})
	}
	a.mu.Lock()
	a.handoffs++
	a.mu.Unlock()
}
