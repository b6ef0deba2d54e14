package core

import (
	"math"
	"sync"
	"time"
)

// Telemetry-health constants of the controller layer (see DefaultPeriod for
// the unit-discipline rationale).
const (
	// maxStaleTicks bounds a sample's age in ticks of the loop that took it:
	// a sample covering more than three ticks means the monitoring loop lost
	// ticks and the observation no longer describes the level it is
	// attributed to.
	maxStaleTicks = 3

	// DefaultMaxStaleness is that bound at the default period — what a guard
	// outside a Tuner (which knows its own period) falls back to.
	DefaultMaxStaleness = maxStaleTicks * DefaultPeriod

	// DefaultDegradeAfter is K, the number of consecutive silent or garbage
	// ticks after which a guarded controller stops holding and degrades to
	// its fallback (equal-share) level.
	DefaultDegradeAfter = 5
)

// HealthPolicy configures telemetry health tracking around a controller.
type HealthPolicy struct {
	// MaxStaleness is the oldest a sample may be and still count as a valid
	// observation (default DefaultMaxStaleness).
	MaxStaleness time.Duration
	// DegradeAfter is K: consecutive bad ticks before the guard degrades
	// from holding to the fallback level (default DefaultDegradeAfter).
	DegradeAfter int
	// FallbackLevel is the degraded posture, typically the equal-share
	// allocation (hardware contexts / co-located processes); default 1.
	FallbackLevel int
}

func (p *HealthPolicy) defaults() {
	if p.MaxStaleness <= 0 {
		p.MaxStaleness = DefaultMaxStaleness
	}
	if p.DegradeAfter <= 0 {
		p.DegradeAfter = DefaultDegradeAfter
	}
	if p.FallbackLevel < 1 {
		p.FallbackLevel = 1
	}
}

// Sample is one quality-tagged telemetry observation: the measured commit
// rate and the age of the window it covers (how long since the previous
// accepted observation).
type Sample struct {
	Tput float64
	Age  time.Duration
}

// HealthState is the guard's position on its degradation ladder.
type HealthState uint8

const (
	// Healthy: samples are flowing and valid; decisions delegate to the
	// wrapped controller.
	Healthy HealthState = iota
	// Holding: 1..K-1 consecutive bad ticks; the guard repeats its last good
	// decision and leaves the wrapped controller untouched.
	Holding
	// Degraded: K or more consecutive bad ticks; the guard actuates the
	// fallback (equal-share) level until telemetry recovers.
	Degraded
)

// String names the state for reports.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Holding:
		return "holding"
	case Degraded:
		return "degraded"
	}
	return "unknown"
}

// HealthStats counts the guard's ladder transitions for observability.
type HealthStats struct {
	// Held counts bad ticks absorbed by repeating the last decision.
	Held uint64
	// Degradations counts Holding→Degraded transitions.
	Degradations uint64
	// Recoveries counts transitions back to Healthy.
	Recoveries uint64
}

// HealthGuard wraps a Controller with the degradation ladder the tentpole
// requires: a missed or garbage tick holds the last decision instead of
// feeding the controller a lie; K consecutive bad ticks degrade to the
// fallback level; a good sample re-enters normal tuning from the held state
// — the wrapped controller is never advanced on bad input, so RUBIC's cubic
// anchors (wMax, epoch) survive the outage intact.
//
// One tuner loop drives the decision path (Next/NextSample/Missed), matching
// the Controller contract, but the observability accessors (State, Stats,
// Level) are safe to call from other goroutines — the agent's telemetry
// ticker and tests poll them while the loop runs — so all mutable fields sit
// behind a mutex. The decision path runs once per controller period; the
// lock is uncontended noise there.
type HealthGuard struct {
	inner Controller
	cfg   HealthPolicy

	mu    sync.Mutex
	state HealthState
	bad   int
	held  int
	stats HealthStats
}

// NewHealthGuard wraps inner in a health guard. It panics on a nil inner,
// which is a programming error.
func NewHealthGuard(inner Controller, cfg HealthPolicy) *HealthGuard {
	if inner == nil {
		panic("core: HealthGuard wrapping nil controller")
	}
	cfg.defaults()
	return &HealthGuard{inner: inner, cfg: cfg, held: inner.Level()}
}

// Unwrap exposes the guarded controller (see StateOf / RestoreInto).
func (g *HealthGuard) Unwrap() Controller { return g.inner }

// State reports the guard's ladder position.
func (g *HealthGuard) State() HealthState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Stats returns the transition counters.
func (g *HealthGuard) Stats() HealthStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Name implements Controller, delegating to the guarded policy.
func (g *HealthGuard) Name() string { return g.inner.Name() }

// Level implements Controller: the level the guard last actuated.
func (g *HealthGuard) Level() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.state == Degraded {
		return g.cfg.FallbackLevel
	}
	return g.held
}

// Reset implements Controller.
func (g *HealthGuard) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inner.Reset()
	g.state, g.bad = Healthy, 0
	g.held = g.inner.Level()
	g.stats = HealthStats{}
}

// Next implements Controller, treating the raw throughput as a fresh sample.
func (g *HealthGuard) Next(tc float64) int {
	return g.NextSample(Sample{Tput: tc})
}

// NextSample consumes one quality-tagged observation and returns the level
// to actuate. Garbage (NaN, infinite, negative), silence (zero) and
// staleness (age past the bound) all count as bad ticks.
func (g *HealthGuard) NextSample(s Sample) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sampleBad(s) {
		return g.badTick()
	}
	if g.state != Healthy {
		// Recovery: the inner controller was never advanced during the
		// outage, so it resumes from its preserved state. Its reference
		// throughput predates the outage; that is exactly the held state the
		// tentpole asks growth to re-enter from.
		g.state = Healthy
		g.bad = 0
		g.stats.Recoveries++
	}
	g.held = g.inner.Next(s.Tput)
	return g.held
}

// Escalate forces the guard straight to Degraded, skipping the Holding
// rungs. It is the out-of-band entry point for faults that are not
// telemetry-shaped — the durability layer calls it when the WAL loses its
// persistence guarantee (fsync failure), because running wide while
// silently non-durable compounds the damage. The ladder's normal recovery
// still applies: the next good sample returns the guard to Healthy, while
// the durability-lost flag stays with the Log that raised it.
func (g *HealthGuard) Escalate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bad = g.cfg.DegradeAfter
	if g.state != Degraded {
		g.state = Degraded
		g.stats.Degradations++
	}
}

// Missed records a tick that never produced a sample (a dropped tick) and
// returns the level to keep actuating.
func (g *HealthGuard) Missed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.badTick()
}

func (g *HealthGuard) sampleBad(s Sample) bool {
	if math.IsNaN(s.Tput) || math.IsInf(s.Tput, 0) || s.Tput < 0 {
		return true
	}
	if s.Tput == 0 {
		return true // a silent window: no commits observed at all
	}
	return s.Age > g.cfg.MaxStaleness
}

func (g *HealthGuard) badTick() int {
	g.bad++
	if g.bad >= g.cfg.DegradeAfter {
		if g.state != Degraded {
			g.state = Degraded
			g.stats.Degradations++
		}
		return g.cfg.FallbackLevel
	}
	g.state = Holding
	g.stats.Held++
	return g.held
}
