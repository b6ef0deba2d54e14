// Package load is the open-loop load subsystem: seeded arrival-schedule
// generators, a Zipfian hot-key request mix, a bounded admission queue that
// timestamps requests at arrival, and an open-loop Server that drives the
// existing workloads through the malleable worker pool while recording
// end-to-end latency (queueing delay included) into HDR-style histograms.
//
// Everything the repo measured before this package is closed-loop: workers
// pull the next task the moment the previous one commits, so the offered
// load adapts to the system's capacity and the only observable is
// throughput. A service faces the opposite regime — requests arrive at a
// rate the system does not control, queues build when capacity lags, and
// the metric that matters is tail latency at a target QPS. The generators
// here produce those arrival schedules deterministically: like the chaos
// layer's fault plans, a schedule is a pure function of (spec, seed), so
// the same scenario@seed replays the same arrivals.
//
// The Server decides nothing itself: its epoch loop is a clock for a
// core.Tuner, handing each epoch's measured rate, window and p99 to
// Tuner.Step — the decision step the closed-loop ticker calls too.
package load

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rubic/internal/rng"
)

// Arrival generates an open-loop arrival schedule as a sequence of
// inter-arrival gaps. Implementations are deterministic: the gap sequence
// is a pure function of the constructor's parameters and seed. Not safe for
// concurrent use — the Server's single generator goroutine owns it.
type Arrival interface {
	// Next returns the gap between the previous arrival and the next one.
	Next() time.Duration
	// Name identifies the process for reports ("poisson", "burst", ...).
	Name() string
}

// Stream tags decorrelating the subsystem's random streams from one seed
// (the convention internal/fault's scenario derivation established).
const (
	tagArrival = 0x41525256 // "ARRV"
	tagZipf    = 0x5a495046 // "ZIPF"
	tagService = 0x53525643 // "SRVC"
)

// seconds converts a gap to a Duration, saturating at 9e9 s (285 years):
// a rate low enough to draw a longer gap must not wrap it negative.
func seconds(s float64) time.Duration { return time.Duration(min(s, 9e9) * float64(time.Second)) }

// validRate is every constructor's rate check: a finite rate above zero. A
// NaN fails the comparison.
func validRate(qps float64) bool { return qps > 0 && !math.IsInf(qps, 0) }

// Constant emits perfectly periodic arrivals at qps. The degenerate
// schedule: no burstiness at all, so any queueing it provokes is pure
// capacity shortfall.
type Constant struct {
	gap time.Duration
}

// NewConstant returns a constant-rate generator. qps must be positive.
func NewConstant(qps float64) (*Constant, error) {
	if !validRate(qps) {
		return nil, fmt.Errorf("load: constant arrival needs a finite qps > 0, got %v", qps)
	}
	return &Constant{gap: seconds(1 / qps)}, nil
}

//rubic:deterministic
//rubic:noalloc
func (c *Constant) Next() time.Duration { return c.gap }
func (c *Constant) Name() string        { return "constant" }

// Poisson emits a memoryless arrival process of intensity qps:
// exponentially distributed gaps, the standard open-loop traffic model.
// Its coefficient of variation of 1 is what makes tail latency interesting
// even at moderate utilization.
type Poisson struct {
	qps float64
	s   *rng.Stream
}

// NewPoisson returns a seeded Poisson generator. qps must be positive.
func NewPoisson(qps float64, seed int64) (*Poisson, error) {
	if !validRate(qps) {
		return nil, fmt.Errorf("load: poisson arrival needs a finite qps > 0, got %v", qps)
	}
	return &Poisson{qps: qps, s: rng.NewStream(seed, tagArrival)}, nil
}

//rubic:deterministic
//rubic:noalloc
func (p *Poisson) Next() time.Duration {
	return seconds(p.s.Exp(p.qps))
}
func (p *Poisson) Name() string { return "poisson" }

// Diurnal modulates a Poisson process sinusoidally between a trough and a
// peak rate over a fixed period — the compressed day/night cycle. The
// instantaneous rate advances along the generator's own virtual clock (the
// sum of emitted gaps), so the schedule stays a pure function of the seed.
type Diurnal struct {
	base, amp float64 // rate(t) = base + amp*sin(2πt/period), both in QPS
	period    float64 // seconds
	virtual   float64 // seconds of schedule emitted so far
	s         *rng.Stream
}

// NewDiurnal returns a seeded diurnal generator oscillating between
// troughQPS and peakQPS with the given cycle period.
func NewDiurnal(troughQPS, peakQPS float64, period time.Duration, seed int64) (*Diurnal, error) {
	if !validRate(troughQPS) || !validRate(peakQPS) || peakQPS < troughQPS {
		return nil, fmt.Errorf("load: diurnal arrival needs finite 0 < trough <= peak, got %v..%v", troughQPS, peakQPS)
	}
	if period <= 0 {
		return nil, fmt.Errorf("load: diurnal arrival needs a positive period, got %v", period)
	}
	return &Diurnal{
		base:   (peakQPS + troughQPS) / 2,
		amp:    (peakQPS - troughQPS) / 2,
		period: period.Seconds(),
		s:      rng.NewStream(seed, tagArrival),
	}, nil
}

//rubic:deterministic
//rubic:noalloc
func (d *Diurnal) Next() time.Duration {
	gap := d.s.Exp(max(d.base+d.amp*math.Sin(2*math.Pi*d.virtual/d.period), 1e-9))
	d.virtual += gap
	return seconds(gap)
}
func (d *Diurnal) Name() string { return "diurnal" }

// Burst emits a Poisson base load punctuated by periodic spikes: every
// Every seconds of virtual time, the rate multiplies by Factor for Width.
// This is the flash-crowd / thundering-herd shape that separates an
// SLO-aware controller from a throughput-greedy one — the spike is exactly
// when cutting parallelism for latency headroom matters.
type Burst struct {
	base    float64
	factor  float64
	every   float64 // seconds between spike starts
	width   float64 // seconds a spike lasts
	virtual float64
	s       *rng.Stream
}

// NewBurst returns a seeded burst-spike generator: baseQPS normally,
// baseQPS*factor during spikes of the given width every interval.
func NewBurst(baseQPS, factor float64, every, width time.Duration, seed int64) (*Burst, error) {
	if !validRate(baseQPS) || !validRate(baseQPS*factor) || factor < 1 {
		return nil, fmt.Errorf("load: burst arrival needs finite qps > 0 and qps*factor, factor >= 1, got %v, %v", baseQPS, factor)
	}
	if every <= 0 || width <= 0 || width >= every {
		return nil, fmt.Errorf("load: burst arrival needs 0 < width < every, got width=%v every=%v", width, every)
	}
	return &Burst{
		base:   baseQPS,
		factor: factor,
		every:  every.Seconds(),
		width:  width.Seconds(),
		s:      rng.NewStream(seed, tagArrival),
	}, nil
}

//rubic:deterministic
//rubic:noalloc
func (b *Burst) Next() time.Duration {
	rate := b.base
	if math.Mod(b.virtual, b.every) < b.width {
		rate *= b.factor
	}
	gap := b.s.Exp(rate)
	b.virtual += gap
	return seconds(gap)
}
func (b *Burst) Name() string { return "burst" }

// Burst and diurnal shape defaults, chosen so short CI runs still cross at
// least one full cycle.
const (
	// DefaultDiurnalPeriod compresses the day/night cycle.
	DefaultDiurnalPeriod = 10 * time.Second
	// DefaultDiurnalSwing is peak/trough: the paper-style 4x day/night ratio.
	DefaultDiurnalSwing = 4.0
	// DefaultBurstEvery spaces the spikes.
	DefaultBurstEvery = 5 * time.Second
	// DefaultBurstWidth is one spike's duration.
	DefaultBurstWidth = 500 * time.Millisecond
	// DefaultBurstFactor multiplies the base rate during a spike.
	DefaultBurstFactor = 8.0
)

// NewArrival builds a generator by name: "constant" and "poisson" emit qps
// exactly; "diurnal" oscillates between a trough and a peak chosen with the
// default swing so the cycle mean is qps; "burst" treats qps as the base
// rate, with default spike shape. The seeded generators follow the chaos
// convention: same (name, qps, seed) ⇒ same schedule.
func NewArrival(name string, qps float64, seed int64) (Arrival, error) {
	switch strings.ToLower(name) {
	case "constant":
		return NewConstant(qps)
	case "poisson":
		return NewPoisson(qps, seed)
	case "diurnal":
		// Trough/peak around the requested mean with the default swing:
		// mean = (trough+peak)/2, peak = swing*trough.
		trough := 2 * qps / (1 + DefaultDiurnalSwing)
		return NewDiurnal(trough, DefaultDiurnalSwing*trough, DefaultDiurnalPeriod, seed)
	case "burst":
		return NewBurst(qps, DefaultBurstFactor, DefaultBurstEvery, DefaultBurstWidth, seed)
	}
	return nil, fmt.Errorf("load: unknown arrival process %q (want constant, poisson, diurnal or burst)", name)
}

// ArrivalNames lists the generator names NewArrival accepts.
func ArrivalNames() []string { return []string{"constant", "poisson", "diurnal", "burst"} }
