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

	// DefaultDegradeAfter is K, the number of consecutive silent or garbage
	// ticks after which the health stage stops holding and degrades to its
	// fallback (equal-share) level.
	DefaultDegradeAfter = 5
)

// HealthPolicy configures the health stage of a Tuner's decision chain.
type HealthPolicy struct {
	// MaxStaleness is the oldest a sample may be and still count as a valid
	// observation (default: three periods of the Tuner the stage runs in —
	// ticks of that loop, not of the canonical one, or at a longer period
	// every sample would count as stale).
	MaxStaleness time.Duration
	// DegradeAfter is K: consecutive bad ticks before the stage degrades
	// from holding to the fallback level (default DefaultDegradeAfter).
	DegradeAfter int
	// FallbackLevel is the degraded posture, typically the equal-share
	// allocation (hardware contexts / co-located processes); default 1.
	FallbackLevel int
}

// HealthState is the guard's position on its degradation ladder.
type HealthState uint8

const (
	// Healthy: samples are flowing and valid; rounds pass through to the
	// controller.
	Healthy HealthState = iota
	// Holding: 1..K-1 consecutive bad ticks; the stage repeats the last
	// level and leaves the controller untouched.
	Holding
	// Degraded: K or more consecutive bad ticks; the stage answers with the
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

// HealthGuard is the health stage of a Tuner's decision chain — the
// degradation ladder: a missed or garbage tick holds the last level instead
// of feeding the controller a lie; K consecutive bad ticks degrade to the
// fallback level; a good sample hands the round back to the controller,
// which was never advanced on bad input, so RUBIC's cubic anchors (wMax,
// epoch) survive the outage intact. The stage holds only its ladder
// position: the level it holds is the Tuner's.
//
// The Tuner's goroutine drives step, but State and Stats are polled from
// others (the agent's telemetry ticker, tests) and Escalate arrives from the
// log's goroutine, so all mutable fields sit behind a mutex. The decision
// path runs once per controller period; the lock is uncontended noise there.
type HealthGuard struct {
	cfg HealthPolicy

	mu    sync.Mutex
	state HealthState
	bad   int
	stats HealthStats
}

// NewHealthGuard builds a health stage for Tuner.Health.
func NewHealthGuard(cfg HealthPolicy) *HealthGuard {
	if cfg.DegradeAfter <= 0 {
		cfg.DegradeAfter = DefaultDegradeAfter
	}
	if cfg.FallbackLevel < 1 {
		cfg.FallbackLevel = 1
	}
	return &HealthGuard{cfg: cfg}
}

// State reports the stage's ladder position.
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

// Escalate forces the stage straight to Degraded, skipping the Holding
// rungs. It is the out-of-band entry point for faults that are not
// telemetry-shaped — the durability layer calls it when the WAL loses its
// persistence guarantee (fsync failure), because running wide while
// silently non-durable compounds the damage. The ladder's normal recovery
// still applies: the next good sample returns the stage to Healthy, while
// the durability-lost flag stays with the Log that raised it.
func (g *HealthGuard) Escalate() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.bad = g.cfg.DegradeAfter
	g.degrade()
}

// step is the stage's round: it claims a bad tick, answering with the held
// level or the fallback, and passes a good sample on to the controller.
// period is the driving loop's.
func (g *HealthGuard) step(o Observation, held int, period time.Duration) (level int, claimed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	maxAge := g.cfg.MaxStaleness
	if maxAge <= 0 {
		maxAge = maxStaleTicks * period
	}
	if !badTick(o, maxAge) {
		if g.state != Healthy {
			// Recovery: the controller was never advanced during the
			// outage, so it resumes from its preserved state. Its reference
			// throughput predates the outage; that is exactly the held state
			// growth re-enters from.
			g.state = Healthy
			g.bad = 0
			g.stats.Recoveries++
		}
		return 0, false
	}
	g.bad++
	if g.bad >= g.cfg.DegradeAfter {
		g.degrade()
		return g.cfg.FallbackLevel, true
	}
	g.state = Holding
	g.stats.Held++
	return held, true
}

// badTick: no sample, garbage (NaN, infinite, negative), silence (a zero
// rate — no commits observed at all) or a window past the staleness bound.
func badTick(o Observation, maxAge time.Duration) bool {
	if o.Missed || math.IsNaN(o.Tput) || math.IsInf(o.Tput, 0) || o.Tput <= 0 {
		return true
	}
	return o.Age > maxAge
}

func (g *HealthGuard) degrade() {
	if g.state != Degraded {
		g.state = Degraded
		g.stats.Degradations++
	}
}
