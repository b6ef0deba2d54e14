package core

import (
	"math"
	"testing"
	"time"

	"rubic/internal/fault"
)

// growTo drives next — a controller's Next, or a Tuner's Step wrapped by
// feed — with monotonically improving throughput until it reaches at least
// the target level (or the round budget runs out). from is the level in
// force: already at the target, no round is played.
func growTo(t *testing.T, next func(float64) int, from, target int) int {
	t.Helper()
	tp, level := 100.0, from
	for i := 0; i < 200 && level < target; i++ {
		tp += 10
		level = next(tp)
	}
	if level < target {
		t.Fatalf("controller stuck at level %d, wanted >= %d", level, target)
	}
	return level
}

// stepTuner is a Tuner driven by Step alone: no ticker, a fake target whose
// level field is the last level actuated.
func stepTuner(ctrl Controller, health *HealthGuard, slo *SLOGuard) (*Tuner, *fakeTarget) {
	target := &fakeTarget{}
	return &Tuner{Controller: ctrl, Target: target, Health: health, SLO: slo}, target
}

// feed is one good observation of throughput tp (and, for SLO tests, p99).
func feed(tuner *Tuner, p99 time.Duration) func(float64) int {
	return func(tp float64) int { return tuner.Step(Observation{Tput: tp, P99: p99}) }
}

func TestHealthGuardDelegatesWhenHealthy(t *testing.T) {
	inner := NewRUBIC(RUBICConfig{MaxLevel: 16})
	g := NewHealthGuard(HealthPolicy{FallbackLevel: 4})
	tuner, target := stepTuner(inner, g, nil)
	level := growTo(t, feed(tuner, 0), inner.Level(), 6)
	if g.State() != Healthy {
		t.Fatalf("state %v after healthy samples", g.State())
	}
	if got := int(target.level.Load()); got != level || inner.Level() != level {
		t.Fatalf("actuated level %d / inner level %d, want %d", got, inner.Level(), level)
	}
}

// TestHealthGuardDegradationLadder is the controller-degradation contract:
// a 2×K outage mid-run first holds the last decision, then falls back to the
// equal-share level, and a recovering sample re-enters CUBIC growth from the
// preserved wMax instead of the floor.
func TestHealthGuardDegradationLadder(t *testing.T) {
	const k, fallback = 5, 4
	inner := NewRUBIC(RUBICConfig{MaxLevel: 32})
	g := NewHealthGuard(HealthPolicy{DegradeAfter: k, FallbackLevel: fallback})
	tuner, _ := stepTuner(inner, g, nil)
	good := feed(tuner, 0)
	held := growTo(t, good, inner.Level(), 8)

	// Provoke losses until the multiplicative cut records a genuine wMax
	// anchor: linear -2 first, a forced growth round, then the escalation.
	held = good(5)   // linear -2 round, reference forgotten
	held = good(500) // forced growth round, new baseline
	held = good(4)   // persistent loss: multiplicative cut, wMax <- level
	held = good(450) // accepted as the new baseline; growth resumes
	before := inner.ExportState()
	if before.WMax <= 1 {
		t.Fatalf("wMax anchor not set before the outage: %+v", before)
	}

	// 2×K consecutive bad ticks: a mix of silence, garbage and staleness.
	bad := []Observation{
		{Tput: 0},
		{Tput: math.NaN()},
		{Tput: math.Inf(1)},
		{Tput: -3},
		{Tput: 100, Age: time.Hour}, // stale
	}
	for i := 0; i < 2*k; i++ {
		var level int
		if i%2 == 0 {
			level = tuner.Step(bad[i%len(bad)])
		} else {
			level = tuner.Step(Observation{Missed: true}) // dropped tick: no sample at all
		}
		switch {
		case i < k-1:
			if g.State() != Holding || level != held {
				t.Fatalf("bad tick %d: state %v level %d, want holding at %d", i, g.State(), level, held)
			}
		default:
			if g.State() != Degraded || level != fallback {
				t.Fatalf("bad tick %d: state %v level %d, want degraded at %d", i, g.State(), level, fallback)
			}
		}
	}
	st := g.Stats()
	if st.Held != k-1 || st.Degradations != 1 {
		t.Fatalf("ladder stats %+v, want %d holds and 1 degradation", st, k-1)
	}

	// Recovery: the inner controller never saw the outage, so its cubic
	// anchors are intact and growth re-enters from the held state.
	if after := inner.ExportState(); after != before {
		t.Fatalf("inner state advanced during the outage: %+v -> %+v", before, after)
	}
	level := good(600)
	if g.State() != Healthy || g.Stats().Recoveries != 1 {
		t.Fatalf("state %v recoveries %d after a good sample", g.State(), g.Stats().Recoveries)
	}
	if level < held {
		t.Fatalf("recovered at level %d, below the held level %d (reset to floor?)", level, held)
	}
	growTo(t, good, level, int(before.WMax)) // cubic growth reaches the preserved anchor again
}

// TestHealthGuardEscalate is the durability layer's contract: an
// out-of-band escalation jumps the ladder straight to the fallback level
// without advancing the wrapped controller, and a good sample afterwards
// recovers normal tuning from the preserved state.
func TestHealthGuardEscalate(t *testing.T) {
	const fallback = 3
	inner := NewRUBIC(RUBICConfig{MaxLevel: 32})
	g := NewHealthGuard(HealthPolicy{FallbackLevel: fallback})
	tuner, _ := stepTuner(inner, g, nil)
	held := growTo(t, feed(tuner, 0), inner.Level(), 8)

	g.Escalate()
	if g.State() != Degraded {
		t.Fatalf("state %v after Escalate, want degraded", g.State())
	}
	// The next tick — even one that carries no sample — actuates the fallback.
	if level := tuner.Step(Observation{Missed: true}); level != fallback {
		t.Fatalf("level %d after Escalate, want fallback %d", level, fallback)
	}
	if inner.Level() != held {
		t.Fatalf("inner advanced to %d during escalation, want untouched %d", inner.Level(), held)
	}
	if g.Stats().Degradations != 1 {
		t.Fatalf("degradations %d, want 1", g.Stats().Degradations)
	}
	// A second escalation is idempotent on the counter.
	g.Escalate()
	if g.Stats().Degradations != 1 {
		t.Fatalf("degradations %d after repeat Escalate, want 1", g.Stats().Degradations)
	}
	// A good sample recovers into normal tuning.
	level := tuner.Step(Observation{Tput: 5000})
	if g.State() != Healthy {
		t.Fatalf("state %v after good sample, want healthy", g.State())
	}
	if level < held {
		t.Fatalf("recovered level %d below the pre-escalation hold %d", level, held)
	}
	if g.Stats().Recoveries != 1 {
		t.Fatalf("recoveries %d, want 1", g.Stats().Recoveries)
	}
}

// TestHealthGuardAIADHolds runs the same outage against an AIAD baseline:
// not resumable, but the stage still holds, degrades and recovers it, and
// its level survives the outage unchanged.
func TestHealthGuardAIADHolds(t *testing.T) {
	const k, fallback = 4, 3
	inner := NewAIAD(16, 1)
	g := NewHealthGuard(HealthPolicy{DegradeAfter: k, FallbackLevel: fallback})
	tuner, _ := stepTuner(inner, g, nil)
	held := growTo(t, feed(tuner, 0), inner.Level(), 6)
	if _, ok := Controller(inner).(Resumable); ok {
		t.Fatal("AIAD unexpectedly resumable")
	}
	if _, ok := tuner.TuningState(); ok {
		t.Fatal("a non-resumable controller published tuning state")
	}
	for i := 0; i < 2*k; i++ {
		level := tuner.Step(Observation{Tput: math.NaN()})
		if i < k-1 && level != held {
			t.Fatalf("bad tick %d: level %d, want held %d", i, level, held)
		}
		if i >= k-1 && level != fallback {
			t.Fatalf("bad tick %d: level %d, want fallback %d", i, level, fallback)
		}
	}
	if inner.Level() != held {
		t.Fatalf("inner AIAD level %d changed during outage, want %d", inner.Level(), held)
	}
	if got := tuner.Step(Observation{Tput: 1000}); got < held {
		t.Fatalf("recovered at %d, below held %d", got, held)
	}
}

func TestRUBICStateRoundTrip(t *testing.T) {
	a := NewRUBIC(RUBICConfig{MaxLevel: 32})
	growTo(t, a.Next, a.Level(), 10)
	a.Next(5)   // linear cut
	a.Next(500) // forced growth round
	a.Next(4)   // multiplicative cut records wMax
	st := a.ExportState()
	if st.WMax < 2 || st.Level < 1 {
		t.Fatalf("exported state %+v", st)
	}

	b := NewRUBIC(RUBICConfig{MaxLevel: 32})
	b.RestoreState(st)
	got := b.ExportState()
	if got.Level != st.Level || got.WMax != st.WMax {
		t.Fatalf("restored %+v, want %+v", got, st)
	}
	// The first post-restore observation is accepted as the new baseline and
	// growth resumes from the restored level, not the floor.
	if next := b.Next(100); next < int(st.Level) {
		t.Fatalf("post-restore level %d below restored %v", next, st.Level)
	}

	// Restore clamps to the new controller's feasible range.
	small := NewRUBIC(RUBICConfig{MaxLevel: 4})
	small.RestoreState(TuningState{Level: 99, WMax: 50, Epoch: 3})
	if got := small.ExportState(); got.Level > 4 || got.WMax > 4 {
		t.Fatalf("restore did not clamp: %+v", got)
	}
}

// TestChaosTunerDegradesUnderSeededPlan drives a real Tuner with a seeded
// fault plan that drops 2×K consecutive ticks and corrupts the samples
// around them: the guard must hold, degrade and recover without the loop
// ever stalling, and the schedule must be identical across runs.
func TestChaosTunerDegradesUnderSeededPlan(t *testing.T) {
	const k = 3
	run := func() ([]fault.Firing, HealthStats) {
		g := NewHealthGuard(HealthPolicy{DegradeAfter: k, FallbackLevel: 2})
		plan := &fault.Plan{Seed: 11, Events: []fault.Event{
			{Point: fault.TickDrop, From: 6, Count: 2 * k},
			{Point: fault.SampleNaN, From: 8, Count: 2},
			{Point: fault.ClockJump, From: 12},
		}}
		target := &fakeTarget{}
		target.level.Store(1)
		inj := fault.New(plan)
		tuner := &Tuner{
			Controller: NewRUBIC(RUBICConfig{MaxLevel: 16}),
			Target:     target,
			Period:     2 * time.Millisecond,
			Health:     g,
			Faults:     inj,
		}
		tuner.Start()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if g.Stats().Recoveries > 0 && target.setCalls.Load() > 30 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		tuner.Stop()
		return inj.Schedule(), g.Stats()
	}
	schedA, statsA := run()
	schedB, _ := run()
	if statsA.Degradations == 0 || statsA.Recoveries == 0 || statsA.Held == 0 {
		t.Fatalf("guard never walked the ladder: %+v", statsA)
	}
	if len(schedA) != len(schedB) {
		t.Fatalf("fault schedules differ across identical runs: %v vs %v", schedA, schedB)
	}
	for i := range schedA {
		if schedA[i] != schedB[i] {
			t.Fatalf("fault schedules diverge at %d: %v vs %v", i, schedA[i], schedB[i])
		}
	}
}

// TestTunerStalenessFollowsPeriod: a guarded loop ticking slower than the
// canonical period must not read every healthy sample as stale — its
// staleness bound is in ticks of its own period.
func TestTunerStalenessFollowsPeriod(t *testing.T) {
	target := &fakeTarget{}
	target.level.Store(1)
	g := NewHealthGuard(HealthPolicy{FallbackLevel: 1})
	tuner := &Tuner{
		Controller: NewRUBIC(RUBICConfig{MaxLevel: 16}),
		Target:     target,
		Period:     2 * maxStaleTicks * DefaultPeriod,
		Health:     g,
	}
	tuner.Start()
	deadline := time.Now().Add(5 * time.Second)
	for target.setCalls.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	if calls := target.setCalls.Load(); calls < 4 {
		t.Fatalf("only %d ticks", calls)
	}
	if st := g.Stats(); st.Held != 0 || st.Degradations != 0 {
		t.Fatalf("healthy samples at a %v period counted as bad: %+v", tuner.Period, st)
	}
}

func TestTunerPublishesResumableState(t *testing.T) {
	target := &fakeTarget{}
	target.level.Store(1)
	tuner := &Tuner{
		Controller: NewRUBIC(RUBICConfig{MaxLevel: 16}),
		Target:     target,
		Period:     2 * time.Millisecond,
	}
	if _, ok := tuner.TuningState(); ok {
		t.Fatal("state published before any decision")
	}
	tuner.Start()
	deadline := time.Now().Add(5 * time.Second)
	for target.setCalls.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	st, ok := tuner.TuningState()
	if !ok || st.Level < 1 {
		t.Fatalf("no resumable state published: %+v ok=%v", st, ok)
	}
}
