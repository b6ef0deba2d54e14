package load

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rubic/internal/core"
	"rubic/internal/pool"
	"rubic/internal/stm"
	"rubic/internal/trace"
)

func newKVServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workload == nil {
		rt := stm.New(stm.Config{})
		cfg.Workload = NewKV(rt, KVConfig{Keys: 500})
	}
	if cfg.Arrival == nil {
		a, err := NewPoisson(400, 17)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Arrival = a
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerOpenLoopKV is the subsystem's end-to-end smoke: a Zipf-keyed KV
// workload under Poisson arrivals for one second must complete roughly the
// offered load, report finite quantiles with queueing delay included, and
// pass the workload's own invariants (Verify runs inside Run).
func TestServerOpenLoopKV(t *testing.T) {
	z, err := NewZipf(500, DefaultTheta, 17)
	if err != nil {
		t.Fatal(err)
	}
	var epochs int
	s := newKVServer(t, Config{
		Keys:    z,
		Epoch:   100 * time.Millisecond,
		Seed:    17,
		OnEpoch: func(EpochStat) { epochs++ },
	})
	res, err := s.Run(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived < 200 || res.Arrived > 800 {
		t.Fatalf("arrived %d, want ≈400 over 1s at 400 QPS", res.Arrived)
	}
	if res.Completed == 0 || res.Completed+res.Shed > res.Arrived {
		t.Fatalf("completed %d + shed %d inconsistent with arrived %d", res.Completed, res.Shed, res.Arrived)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.Max < res.P999-res.P999/histRelErrDen {
		t.Fatalf("quantiles not ordered: p50=%v p99=%v p999=%v max=%v", res.P50, res.P99, res.P999, res.Max)
	}
	if epochs != len(res.Epochs) || epochs < 5 {
		t.Fatalf("epoch callback fired %d times for %d epochs", epochs, len(res.Epochs))
	}
	if res.Hist.Count() != res.Completed {
		// Every served request records exactly one latency; failed requests
		// would add more, but KV requests only fail on STM errors.
		t.Fatalf("histogram count %d != completed %d", res.Hist.Count(), res.Completed)
	}
}

// histRelErrDen mirrors the histogram's bucket resolution for the ordering
// check above (Max is exact, P999 is a bucket upper edge and may sit one
// bucket width above it).
const histRelErrDen = 32

// TestServerUnkeyedWorkload: a workload without ServeKey still serves
// open-loop traffic, one closed-loop task per request.
func TestServerUnkeyedWorkload(t *testing.T) {
	rt := stm.New(stm.Config{})
	w := &unkeyed{kv: NewKV(rt, KVConfig{Keys: 100})}
	s := newKVServer(t, Config{Workload: w, Seed: 3})
	res, err := s.Run(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no requests served through the unkeyed path")
	}
}

// unkeyed hides KV's ServeKey so the server exercises the Task fallback.
type unkeyed struct{ kv *KV }

func (u *unkeyed) Name() string               { return "unkeyed-" + u.kv.Name() }
func (u *unkeyed) Setup(rng *rand.Rand) error { return u.kv.Setup(rng) }
func (u *unkeyed) Task() pool.Task            { return u.kv.Task() }
func (u *unkeyed) Verify() error              { return u.kv.Verify() }

// TestServerSLOControllerConverges is the serve-smoke assertion in test
// form: a modest Poisson load against a generous SLO must end the run
// meeting its target with a finite p999, and the level must stay within
// bounds every epoch.
func TestServerSLOControllerConverges(t *testing.T) {
	s := newKVServer(t, Config{
		SLO:   &core.SLOPolicy{TargetP99: 250 * time.Millisecond},
		Epoch: 100 * time.Millisecond,
		Seed:  29,
	})
	res, err := s.Run(1500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOState != "meeting" {
		t.Fatalf("final SLO state %q (stats %+v), want meeting", res.SLOState, res.SLO)
	}
	if res.P999 <= 0 || res.P999 > time.Minute {
		t.Fatalf("p999 %v not finite/sane", res.P999)
	}
	for _, e := range res.Epochs {
		if e.Level < 1 || e.Level > 4 {
			t.Fatalf("epoch %d actuated level %d outside [1, workers]", e.Index, e.Level)
		}
	}
}

// TestServerSLOCutsUnderOverload: an offered load far beyond one worker's
// capacity with an unreachable SLO must drive the guard to cut — the level
// trace has to come down from the initial full level.
func TestServerSLOCutsUnderOverload(t *testing.T) {
	rt := stm.New(stm.Config{})
	a, err := NewConstant(2000)
	if err != nil {
		t.Fatal(err)
	}
	s := newKVServer(t, Config{
		Workload: NewKV(rt, KVConfig{Keys: 200}),
		Arrival:  a,
		Workers:  4,
		QueueCap: 64,
		SLO:      &core.SLOPolicy{TargetP99: time.Nanosecond, BreachAfter: 1},
		Epoch:    50 * time.Millisecond,
		Seed:     5,
	})
	res, err := s.Run(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLO.Cuts == 0 {
		t.Fatalf("unreachable SLO produced no cuts: %+v", res.SLO)
	}
	min := res.Epochs[0].Level
	for _, e := range res.Epochs {
		if e.Level < min {
			min = e.Level
		}
	}
	if min != 1 {
		t.Fatalf("sustained breach never cut to the floor (min level %d)", min)
	}
}

// TestServerEpochRateIsOverMeasuredWindow: a ticker delivers late and drops
// ticks when its receiver stalls — which on an oversubscribed host is the
// co-location case itself — so the rate an epoch reports, and feeds the
// controller, must be its completions over the time actually covered. One
// epoch's report handler blocks for several periods; every epoch's
// QPS x window must still be its Completed, where dividing by the nominal
// epoch inflates the stalled epoch's rate by the length of the stall.
func TestServerEpochRateIsOverMeasuredWindow(t *testing.T) {
	const epoch = 50 * time.Millisecond
	a, err := NewConstant(2000)
	if err != nil {
		t.Fatal(err)
	}
	var reported []time.Time
	s := newKVServer(t, Config{
		Arrival: a,
		Workers: 2,
		Epoch:   epoch,
		Seed:    11,
		OnEpoch: func(e EpochStat) {
			reported = append(reported, time.Now())
			if e.Index == 2 {
				time.Sleep(4 * epoch)
			}
		},
	})
	res, err := s.Run(12 * epoch)
	if err != nil {
		t.Fatal(err)
	}
	stalled := false
	for i := 1; i < len(res.Epochs); i++ {
		e := res.Epochs[i]
		// Reports follow their samples by the same few microseconds, so the
		// gap between two reports is the later epoch's window.
		window := reported[i].Sub(reported[i-1])
		stalled = stalled || window > 3*epoch
		covered := e.QPS * window.Seconds()
		if math.Abs(covered-float64(e.Completed)) > 0.3*float64(e.Completed)+10 {
			t.Errorf("epoch %d: qps %.0f over its %v window is %.0f requests, but %d completed",
				e.Index, e.QPS, window, covered, e.Completed)
		}
	}
	if !stalled {
		t.Fatalf("no epoch covered the stall: %d epochs", len(res.Epochs))
	}
}

// scriptedTarget is a core.Target whose completion counter follows a script
// of per-sample deltas (cycled), and which remembers the levels actuated.
type scriptedTarget struct {
	deltas  []uint64
	samples atomic.Int64
	count   uint64
	levels  []int
}

func (s *scriptedTarget) SetLevel(n int) { s.levels = append(s.levels, n) }

func (s *scriptedTarget) Completed() uint64 {
	s.count += s.deltas[int(s.samples.Add(1))%len(s.deltas)]
	return s.count
}

// TestServerAndTickerShareTheDecisionStep is the differential test of the two
// clocks: the closed-loop Tuner runs on its own ticker over a scripted
// counter, recording each observation's rate and the level decided from it;
// the same rates are then played through the server's call site (decide, on
// a Server that never runs) into a controller of the same configuration. The
// level sequences must be identical — there is one decision step, and neither
// clock adds to it.
func TestServerAndTickerShareTheDecisionStep(t *testing.T) {
	const rounds = 60
	cfg := core.RUBICConfig{MaxLevel: 16}
	// Gains, plateaus and collapses, so RUBIC grows, cuts and recovers.
	ticked := &scriptedTarget{deltas: []uint64{10, 40, 90, 160, 250, 360, 20, 5, 300, 400, 500, 30, 600, 700, 1}}
	rates, levels := trace.NewSeries("rate"), trace.NewSeries("level")
	tuner := &core.Tuner{
		Controller:  core.NewRUBIC(cfg),
		Target:      ticked,
		Period:      time.Millisecond,
		Levels:      levels,
		Throughputs: rates,
	}
	tuner.Start()
	for deadline := time.Now().Add(10 * time.Second); ticked.samples.Load() <= rounds && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	if levels.Len() < rounds || levels.Len() != rates.Len() || levels.Len() != len(ticked.levels) {
		t.Fatalf("ticker path recorded %d levels, %d rates, %d actuations", levels.Len(), rates.Len(), len(ticked.levels))
	}
	if lo, hi := levels.MinMax(); hi-lo < 3 {
		t.Fatalf("script moved the level only within [%v, %v]: the comparison would be vacuous", lo, hi)
	}

	s := newKVServer(t, Config{Workers: cfg.MaxLevel, Controller: core.NewRUBIC(cfg)})
	served := &scriptedTarget{}
	s.tuner.Target = served
	for i, rate := range rates.V {
		st := EpochStat{Index: i, QPS: rate}
		s.decide(&st, tuner.Period)
		if st.Level != int(levels.V[i]) || served.levels[i] != ticked.levels[i] {
			t.Fatalf("round %d (rate %.0f): server's call site decided %d (actuated %d), ticker path %v (actuated %d)\nticker levels %v",
				i, rate, st.Level, served.levels[i], levels.V[i], ticked.levels[i], levels.V[:i+1])
		}
	}
}

// TestServerArrivalScheduleDeterminism: two runs at the same seed offer the
// same number of requests (the schedule is a pure function of the seed;
// completion counts may differ with scheduling, arrivals must not).
func TestServerArrivalScheduleDeterminism(t *testing.T) {
	run := func() uint64 {
		rt := stm.New(stm.Config{})
		a, err := NewPoisson(300, 23)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(Config{
			Workload: NewKV(rt, KVConfig{Keys: 100}),
			Arrival:  a,
			Workers:  2,
			Seed:     23,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(700 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return res.Arrived
	}
	a, b := run(), run()
	// The schedule is identical; the run duration boundary can admit a few
	// more or fewer arrivals depending on timer jitter.
	diff := int64(a) - int64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(a/10)+20 {
		t.Fatalf("same-seed runs offered %d vs %d arrivals", a, b)
	}
}

func TestServerValidation(t *testing.T) {
	rt := stm.New(stm.Config{})
	kv := NewKV(rt, KVConfig{})
	a, _ := NewConstant(10)
	if _, err := NewServer(Config{Arrival: a, Workers: 1}); err == nil {
		t.Fatal("missing workload accepted")
	}
	if _, err := NewServer(Config{Workload: kv, Workers: 1}); err == nil {
		t.Fatal("missing arrival accepted")
	}
	if _, err := NewServer(Config{Workload: kv, Arrival: a}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewServer(Config{Workload: kv, Arrival: a, Workers: 1, QueueCap: -1}); err == nil {
		t.Fatal("negative queue accepted")
	}
	if _, err := NewServer(Config{Workload: kv, Arrival: a, Workers: 1, SLO: &core.SLOPolicy{}}); err == nil {
		t.Fatal("invalid SLO policy accepted")
	}
	s, err := NewServer(Config{Workload: kv, Arrival: a, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}
