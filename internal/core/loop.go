package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rubic/internal/fault"
	"rubic/internal/trace"
)

// Fault-injection timing constants (derived from the canonical tick; see
// units.go).
const (
	// clockJumpAge is the elapsed-time inflation the ctl.clockjump injection
	// point adds to one tick, modelling a suspended or migrated process.
	clockJumpAge = 20 * DefaultPeriod

	// injectedStaleAge is the age the ctl.stalesample injection point stamps
	// on one sample — past any reasonable staleness bound.
	injectedStaleAge = 1000 * DefaultPeriod
)

// Observation is what one measurement window tells the decision step. Both
// clocks build it — the closed-loop ticker from the target's completion
// counter, the open-loop server from its interval histogram — and every
// consumer (SLO stage, health stage, controller, adapter) reads the fields it
// needs from the same value.
type Observation struct {
	// Tput is the window's completion rate per second.
	Tput float64
	// Age is the measured length of the window. The health stage reads a
	// window longer than its staleness bound as lost ticks.
	Age time.Duration
	// P99 is the window's 99th-percentile latency; zero means no latency
	// signal (a closed-loop stack, an idle epoch) and never breaches an SLO.
	P99 time.Duration
	// Missed marks a tick that produced no sample at all; the other fields
	// are not read.
	Missed bool
}

// Adapter is the per-epoch hook of an adaptive runtime stack (see
// colocate.AdaptiveStack): each round it receives the observation the level
// was decided from and may hot-swap the stack's engine or contention manager
// before the next epoch runs.
type Adapter interface {
	Epoch(Observation)
}

// Target is the malleable process a Tuner steers: the real worker pool and
// any other adaptable runtime satisfy it.
type Target interface {
	// SetLevel actuates a new parallelism level.
	SetLevel(int)
	// Completed returns the monotonically increasing count of completed
	// tasks (the commit counter sum in a TM process).
	Completed() uint64
}

// Tuner is the monitoring loop of the paper's section 3.1: sample the commit
// rate, ask the controller, actuate. Step is that round; Start runs it on the
// Tuner's own ticker (the closed loop), and a driver with a clock of its own
// (load.Server's epoch loop) calls Step directly.
//
// The paper runs this loop in a thread of elevated priority so it keeps
// running under oversubscription; goroutine priorities are not exposed in
// Go, so the loop relies on the runtime's preemptive scheduler instead —
// with a 10 ms period the sampling jitter is negligible in practice.
type Tuner struct {
	// Controller is the base policy. It is the only holder of tuning state:
	// an SLO cut and an engine-handoff re-anchor both restore into it.
	Controller Controller
	Target     Target
	// Period is the measurement interval; Start defaults it to the paper's
	// 10 ms, a driver calling Step itself sets its own clock's interval (the
	// health stage's staleness bound is counted in it).
	Period time.Duration
	// Levels and Throughputs, when non-nil, receive one sample per round of
	// the Tuner's own ticker (time measured in seconds since Start).
	Levels      *trace.Series
	Throughputs *trace.Series
	// SLO, when non-nil, is the first stage of the decision chain: an epoch
	// whose p99 breaches the target is held or cut before the throughput is
	// looked at.
	SLO *SLOGuard
	// Health, when non-nil, is the second stage: a missed, garbage or stale
	// sample holds the last level, a sustained outage degrades to the
	// fallback, and the controller never sees either.
	Health *HealthGuard
	// Faults is the controller-layer fault injector (nil: no injection, the
	// production state — the injection points below cost one nil test each).
	Faults *fault.Injector
	// Adapter, when non-nil, is driven once per round after the level is
	// actuated — the adaptive runtime's epoch boundary. Running it last
	// orders any engine handoff behind the round's decision, so the state
	// the handoff exports from Controller already contains an SLO cut made
	// this round and cannot resurrect the level the cut replaced.
	Adapter Adapter

	// last is the level last actuated (0 before the first); only the
	// goroutine calling Step and Hold touches it.
	last      int
	published atomic.Pointer[TuningState]
	stop      chan struct{}
	done      chan struct{}
	stopOnce  sync.Once
}

// Start launches the monitoring loop in its own goroutine.
func (t *Tuner) Start() {
	if t.Period <= 0 {
		t.Period = DefaultPeriod
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go t.run()
}

// Stop terminates the loop and waits for it to exit. Calling Stop without a
// prior Start is a no-op, and repeated Stops are safe — supervision error
// paths tear tuners down without tracking whether they ever started.
func (t *Tuner) Stop() {
	if t.stop == nil {
		return
	}
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
}

// TuningState returns the most recent resumable controller state the loop
// published (ok is false before the first actuation or for controllers that
// are not Resumable). It is safe to call concurrently with the loop — the
// supervisor protocol streams this so a restarted process can resume tuning
// where its predecessor stopped.
func (t *Tuner) TuningState() (TuningState, bool) {
	if st := t.published.Load(); st != nil {
		return *st, true
	}
	return TuningState{}, false
}

// Step is the one place a level is decided. The observation runs the fixed
// chain SLO stage → health stage → Controller.Next: the objective is checked
// before the signal (a breaching epoch must not grow the level however good
// its throughput looks), and the signal's quality before the policy consumes
// it (the controller is never advanced on a lie). The first stage that
// claims the round decides it. The level is then actuated, the controller's
// resumable state published, and the Adapter driven. A missed tick without a
// health stage skips the round: nothing is advanced, actuated or published.
func (t *Tuner) Step(o Observation) int {
	if o.Missed && t.Health == nil {
		return t.held()
	}
	level := t.decide(o)
	t.actuate(level)
	if t.Adapter != nil && !o.Missed {
		t.Adapter.Epoch(o)
	}
	return level
}

// Hold actuates the level in force without consuming an observation — the
// controller's own before the first Step. A driver that must size its pool
// before the first window closes (load.Server) calls it once.
func (t *Tuner) Hold() int {
	level := t.held()
	t.actuate(level)
	return level
}

// decide runs the chain: the first stage to claim the round answers it.
func (t *Tuner) decide(o Observation) int {
	held := t.held()
	if t.SLO != nil && !o.Missed {
		if level, claimed := t.SLO.step(o.P99, held, t.Controller); claimed {
			return level
		}
	}
	if t.Health != nil {
		if level, claimed := t.Health.step(o, held, t.Period); claimed {
			return level
		}
	}
	return t.Controller.Next(o.Tput)
}

func (t *Tuner) held() int {
	if t.last == 0 {
		t.last = t.Controller.Level()
	}
	return t.last
}

// actuate applies a decision and publishes the controller's resumable state.
func (t *Tuner) actuate(level int) {
	t.last = level
	t.Target.SetLevel(level)
	if r, ok := t.Controller.(Resumable); ok {
		st := r.ExportState()
		t.published.Store(&st)
	}
}

// run is the closed-loop clock: every Period it turns the target's
// completion counter and the measured elapsed time into an observation (the
// ctl.* fault points corrupt it on the way) and calls Step.
func (t *Tuner) run() {
	defer close(t.done)
	ticker := time.NewTicker(t.Period)
	defer ticker.Stop()
	start := time.Now()
	prevCount := t.Target.Completed()
	prevTime := start
	for {
		select {
		case <-t.stop:
			return
		case now := <-ticker.C:
			if t.Faults.Fire(fault.TickDrop) {
				// The tick is lost before any sample is taken. The sample
				// window is left open, so the next tick's observation
				// covers it.
				t.Step(Observation{Missed: true})
				continue
			}
			count := t.Target.Completed()
			elapsed := now.Sub(prevTime)
			if t.Faults.Fire(fault.ClockJump) {
				elapsed += clockJumpAge
			}
			if elapsed <= 0 {
				continue
			}
			o := Observation{Tput: float64(count-prevCount) / elapsed.Seconds(), Age: elapsed}
			prevCount, prevTime = count, now
			if t.Faults.Fire(fault.SampleZero) {
				o.Tput = 0
			}
			if t.Faults.Fire(fault.SampleNaN) {
				o.Tput = math.NaN()
			}
			if t.Faults.Fire(fault.SampleStale) {
				o.Age = injectedStaleAge
			}
			level := t.Step(o)
			if t.Levels != nil {
				t.Levels.Add(now.Sub(start).Seconds(), float64(level))
			}
			if t.Throughputs != nil {
				t.Throughputs.Add(now.Sub(start).Seconds(), o.Tput)
			}
		}
	}
}
