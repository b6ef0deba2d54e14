package core

import (
	"fmt"
	"sync"
	"time"
)

// SLO-tuning defaults.
const (
	// DefaultBreachAfter is K: consecutive SLO-breaching epochs before the
	// stage cuts the level. 2 tolerates a single noisy epoch without
	// reacting, while still bounding the reaction time to 2 epochs.
	DefaultBreachAfter = 2

	// DefaultSLOAlpha is the multiplicative cut factor on a confirmed
	// breach — RUBIC's own decrease factor, reused so the latency-driven
	// cut composes with the throughput-driven cubic recovery.
	DefaultSLOAlpha = 0.8
)

// SLOPolicy configures the SLO stage of a Tuner's decision chain.
type SLOPolicy struct {
	// TargetP99 is the per-epoch p99 latency objective. Required.
	TargetP99 time.Duration
	// BreachAfter is K: consecutive breaching epochs before a cut
	// (default DefaultBreachAfter).
	BreachAfter int
	// Alpha is the multiplicative cut factor in (0, 1)
	// (default DefaultSLOAlpha).
	Alpha float64
	// MinLevel floors the cut (default 1).
	MinLevel int
}

func (p *SLOPolicy) defaults() error {
	if p.TargetP99 <= 0 {
		return fmt.Errorf("core: SLO policy needs a positive p99 target, got %v", p.TargetP99)
	}
	if p.BreachAfter <= 0 {
		p.BreachAfter = DefaultBreachAfter
	}
	if p.Alpha == 0 {
		p.Alpha = DefaultSLOAlpha
	}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return fmt.Errorf("core: SLO alpha must be in (0,1), got %v", p.Alpha)
	}
	if p.MinLevel < 1 {
		p.MinLevel = 1
	}
	return nil
}

// SLOState is the stage's posture against its latency objective.
type SLOState uint8

const (
	// Meeting: the measured p99 is within the target; rounds pass through
	// to the (throughput-driven) controller.
	Meeting SLOState = iota
	// Breaching: 1..K-1 consecutive epochs over target; the stage holds the
	// last level and arms the cut.
	Breaching
)

// String names the state for reports.
func (s SLOState) String() string {
	switch s {
	case Meeting:
		return "meeting"
	case Breaching:
		return "breaching"
	}
	return "unknown"
}

// SLOStats counts the stage's transitions for observability.
type SLOStats struct {
	// Breaches counts epochs whose p99 exceeded the target.
	Breaches uint64
	// Cuts counts confirmed breaches that actually cut the level.
	Cuts uint64
	// Recoveries counts Breaching→Meeting transitions.
	Recoveries uint64
}

// SLOGuard is the SLO stage of a Tuner's decision chain: each epoch it
// reads the measured p99 before the throughput is looked at. While the SLO
// is met the round passes on unchanged — under open loop the throughput
// signal saturates at the arrival rate, so RUBIC drifts upward, probing for
// capacity headroom. K consecutive breaching epochs trigger a multiplicative
// cut, installed through the controller's own restore path with wMax
// anchored at the pre-cut level: when the SLO recovers, growth re-enters
// RUBIC's cubic curve — fast while far below the last known breach level,
// cautious as it approaches it — instead of blindly re-probing the level
// that just blew the tail. Sustained breaches keep cutting every K epochs
// down to the floor. The stage holds only its breach count: the level it
// holds and cuts is the Tuner's.
//
// It runs ahead of the health stage: telemetry health describes the signal,
// the SLO describes the objective.
//
// Like HealthGuard, the Tuner's goroutine drives step while State and Stats
// may be polled from others, so mutable state sits behind a mutex that is
// uncontended on the decision path.
type SLOGuard struct {
	cfg SLOPolicy

	mu     sync.Mutex
	state  SLOState
	breach int
	stats  SLOStats
}

// NewSLOGuard builds an SLO stage for Tuner.SLO; an invalid policy is an
// error.
func NewSLOGuard(cfg SLOPolicy) (*SLOGuard, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &SLOGuard{cfg: cfg}, nil
}

// State reports the stage's posture.
func (g *SLOGuard) State() SLOState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.state
}

// Stats returns the transition counters.
func (g *SLOGuard) Stats() SLOStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// step is the stage's round: it claims a breaching epoch — holding the level
// while the cut is armed, cutting base on the K-th — and passes a meeting
// one on. p99 <= 0 means "no latency signal this epoch" (an idle epoch with
// no completed requests) and counts as meeting: an idle service is not
// breaching its SLO.
func (g *SLOGuard) step(p99 time.Duration, held int, base Controller) (level int, claimed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p99 <= g.cfg.TargetP99 {
		if g.state == Breaching {
			g.state = Meeting
			g.breach = 0
			g.stats.Recoveries++
		}
		return 0, false
	}
	g.stats.Breaches++
	g.breach++
	g.state = Breaching
	if g.breach < g.cfg.BreachAfter {
		return held, true // hold: the cut is armed, not yet confirmed
	}
	// Confirmed breach: multiplicative cut, anchored so recovery re-enters
	// cubic growth from the level that breached.
	g.breach = 0
	g.stats.Cuts++
	cut := int(g.cfg.Alpha * float64(held))
	if cut >= held {
		cut = held - 1
	}
	if cut < g.cfg.MinLevel {
		cut = g.cfg.MinLevel
	}
	// A resumable controller (RUBIC) takes the cut through its restore path:
	// level drops to the cut, wMax anchors at the breach level, and the next
	// meeting epoch resumes cubic growth toward it. Others simply have the
	// cut actuated over them.
	if r, ok := base.(Resumable); ok {
		r.RestoreState(TuningState{Level: float64(cut), WMax: float64(held)})
	}
	return cut, true
}
