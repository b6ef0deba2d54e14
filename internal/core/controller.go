// Package core implements the online parallelism controllers studied in the
// RUBIC paper: RUBIC itself (cubic increase with hybrid linear/multiplicative
// decrease, Algorithm 2), and the compared policies — EBS and F2C2 (AIAD
// hill-climbers), plain AIAD, AIMD (the SPAA'15 brief announcement), and the
// static Greedy and EqualShare allocations.
//
// Controllers are pure state machines decoupled from the execution
// substrate: each round, the driver feeds the throughput observed over the
// last period to Next, which returns the parallelism level for the coming
// period. The same controller instance therefore drives both the real
// worker pool (package pool) and the co-location simulator (package sim).
//
// On the real runtime every round goes through Tuner.Step: one Observation
// (throughput, window age, p99, missed tick) runs the fixed chain SLO stage
// → health stage → Controller.Next, the level is actuated, the resumable
// state published and the adaptive runtime's Adapter driven. The closed-loop
// Tuner calls it from its own ticker, load.Server from its epoch loop.
package core

import "fmt"

// Controller decides a process' parallelism level from local throughput
// observations only (no inter-process communication, per the paper).
type Controller interface {
	// Next consumes the throughput measured over the period that just ended
	// and returns the level (number of active threads) for the next period,
	// always within [1, MaxLevel].
	Next(throughput float64) int
	// Level returns the current level without advancing the controller.
	Level() int
	// Reset returns the controller to its initial state.
	Reset()
	// Name identifies the policy in reports.
	Name() string
}

// clamp bounds a fractional level into the controller's feasible range and
// rounds it to an actuatable thread count.
func clamp(l float64, max int) int {
	n := int(l + 0.5)
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// TuningState is the portable tuning state a controller preserves across a
// process restart: the actuated level plus RUBIC's cubic anchors (the last
// loss level wMax and the growth-round epoch). Restoring it lets a restarted
// agent re-enter cubic growth from where its predecessor left off instead of
// re-probing from the floor.
type TuningState struct {
	Level float64 `json:"level"`
	WMax  float64 `json:"wmax"`
	Epoch float64 `json:"epoch"`
}

// Resumable is implemented by controllers whose tuning state survives a
// process restart; controllers without it simply restart from their initial
// state. It is also the one funnel through which a running controller is
// moved from outside its own Next: the SLO stage's cut and the adaptive
// stack's engine-handoff re-anchor both call RestoreState on the Tuner's
// base controller.
type Resumable interface {
	ExportState() TuningState
	RestoreState(TuningState)
}

// Factory builds a fresh controller for a process; harness experiments use
// factories so each repetition and each process gets independent state.
type Factory func() Controller

// ByName returns a factory for the named policy, configured with the
// machine's context count (for Greedy), the number of co-located processes
// (for EqualShare), and the per-process maximum level.
//
// Valid names: rubic, ebs, f2c2, aiad, aimd, hillclimb, greedy, equalshare,
// profile.
func ByName(name string, contexts, processes, maxLevel int) (Factory, error) {
	switch name {
	case "rubic":
		return func() Controller { return NewRUBIC(RUBICConfig{MaxLevel: maxLevel}) }, nil
	case "profile":
		return func() Controller { return NewProfileThenPin(maxLevel, 4, 3) }, nil
	case "ebs":
		return func() Controller { return NewEBS(maxLevel) }, nil
	case "hillclimb":
		return func() Controller { return NewHillClimb(maxLevel) }, nil
	case "f2c2":
		return func() Controller { return NewF2C2(maxLevel) }, nil
	case "aiad":
		return func() Controller { return NewAIAD(maxLevel, 1) }, nil
	case "aimd":
		return func() Controller { return NewAIMD(maxLevel, 0.5) }, nil
	case "greedy":
		return func() Controller { return NewStatic("greedy", contexts, maxLevel) }, nil
	case "equalshare":
		n := processes
		if n < 1 {
			n = 1
		}
		share := contexts / n
		if share < 1 {
			share = 1
		}
		return func() Controller { return NewStatic("equalshare", share, maxLevel) }, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q", name)
}

// PolicyNames lists the policies the evaluation compares, in the order the
// figures present them.
func PolicyNames() []string {
	return []string{"greedy", "equalshare", "f2c2", "ebs", "rubic"}
}
