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

// Adapter is the per-epoch hook of an adaptive runtime stack (see
// colocate.AdaptiveStack): each tick it receives the epoch's throughput
// sample and may hot-swap the stack's engine or contention manager before
// the next epoch runs.
type Adapter interface {
	Epoch(tput float64)
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

// Tuner is the monitoring loop of the paper's section 3.1: every Period it
// computes the throughput of the period that just ended from the target's
// completion counters, feeds it to the controller, and actuates the decided
// level.
//
// The paper runs this loop in a thread of elevated priority so it keeps
// running under oversubscription; goroutine priorities are not exposed in
// Go, so the loop relies on the runtime's preemptive scheduler instead —
// with a 10 ms period the sampling jitter is negligible in practice.
type Tuner struct {
	Controller Controller
	Target     Target
	// Period is the measurement interval; defaults to the paper's 10 ms.
	Period time.Duration
	// Levels and Throughputs, when non-nil, receive one sample per round
	// (time measured in seconds since Run started).
	Levels      *trace.Series
	Throughputs *trace.Series
	// Health, when non-nil, wraps Controller in a HealthGuard at Start:
	// samples are quality-tagged with their age, missed ticks hold the last
	// decision, and sustained outages degrade to the policy's fallback level.
	Health *HealthPolicy
	// Faults is the controller-layer fault injector (nil: no injection, the
	// production state — the injection points below cost one nil test each).
	Faults *fault.Injector
	// Adapter, when non-nil, is driven once per tick after the level is
	// actuated — the adaptive runtime's epoch boundary. Running it after
	// actuation orders any engine handoff behind the controller's decision
	// for the epoch (SLO cuts included), so the adapter's fresh StateOf
	// snapshot at the handoff never resurrects pre-cut state.
	Adapter Adapter

	guard     *HealthGuard
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
	if t.Health != nil && t.guard == nil {
		policy := *t.Health
		if policy.MaxStaleness <= 0 {
			// Ticks of this loop, not of the canonical one: at a longer
			// period every sample would otherwise count as stale.
			policy.MaxStaleness = maxStaleTicks * t.Period
		}
		t.guard = NewHealthGuard(t.Controller, policy)
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

// Guard exposes the health guard installed at Start (nil without a Health
// policy), for telemetry and tests.
func (t *Tuner) Guard() *HealthGuard { return t.guard }

// TuningState returns the most recent resumable controller state the loop
// published (ok is false before the first decision or for controllers that
// are not Resumable). It is safe to call concurrently with the loop — the
// supervisor protocol streams this so a restarted process can resume tuning
// where its predecessor stopped.
func (t *Tuner) TuningState() (TuningState, bool) {
	if st := t.published.Load(); st != nil {
		return *st, true
	}
	return TuningState{}, false
}

// active is the controller the loop actually drives: the guard when a health
// policy is installed, the raw controller otherwise.
func (t *Tuner) active() Controller {
	if t.guard != nil {
		return t.guard
	}
	return t.Controller
}

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
				// The tick is lost before any sample is taken. A guarded
				// controller holds its last decision; an unguarded one just
				// misses the round. The sample window is left open, so the
				// next tick's observation covers it.
				if t.guard != nil {
					t.actuate(t.guard.Missed())
				}
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
			tc := float64(count-prevCount) / elapsed.Seconds()
			prevCount, prevTime = count, now
			if t.Faults.Fire(fault.SampleZero) {
				tc = 0
			}
			if t.Faults.Fire(fault.SampleNaN) {
				tc = math.NaN()
			}
			age := elapsed
			if t.Faults.Fire(fault.SampleStale) {
				age = injectedStaleAge
			}
			var level int
			if t.guard != nil {
				level = t.guard.NextSample(Sample{Tput: tc, Age: age})
			} else {
				level = t.Controller.Next(tc)
			}
			t.actuate(level)
			if t.Adapter != nil {
				t.Adapter.Epoch(tc)
			}
			if t.Levels != nil {
				t.Levels.Add(now.Sub(start).Seconds(), float64(level))
			}
			if t.Throughputs != nil {
				t.Throughputs.Add(now.Sub(start).Seconds(), tc)
			}
		}
	}
}

// actuate applies a decision and publishes the controller's resumable state.
func (t *Tuner) actuate(level int) {
	t.Target.SetLevel(level)
	if st, ok := StateOf(t.active()); ok {
		t.published.Store(&st)
	}
}
