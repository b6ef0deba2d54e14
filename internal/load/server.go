package load

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rubic/internal/core"
	"rubic/internal/metrics"
	"rubic/internal/pool"
	"rubic/internal/stamp"
)

// Config assembles one open-loop serving stack.
type Config struct {
	// Workload handles the requests. Workloads implementing Keyed receive
	// the Zipf-drawn key; others execute one closed-loop task per request.
	Workload stamp.Workload
	// Arrival is the seeded arrival schedule.
	Arrival Arrival
	// Keys, when non-nil, draws each request's key from the Zipfian hot-key
	// mix; nil sends the arrival sequence number as the key (uniform only
	// in the trivial sense — keyed workloads normally want a Zipf).
	Keys *Zipf
	// QueueCap bounds the admission queue (default 1024). Requests arriving
	// at a full queue are shed and counted, not blocked on.
	QueueCap int
	// Workers is the pool size — the maximum parallelism level. Required.
	Workers int
	// Controller steers the level from per-epoch signals; nil pins the
	// level at Workers (a core.Static).
	Controller core.Controller
	// SLO, when non-nil, puts a core.SLOGuard ahead of Controller (default:
	// a RUBIC starting at full level) so the level is tuned against the p99
	// target instead of raw throughput.
	SLO *core.SLOPolicy
	// Epoch is the reporting/tuning interval (default 250 ms).
	Epoch time.Duration
	// Seed derives every random stream of the stack (workload setup, pool
	// workers; the Arrival and Keys generators are seeded by their own
	// constructors, conventionally from the same seed).
	Seed int64
	// OnEpoch, when non-nil, receives each epoch's stats as the run
	// progresses (the serve CLI's live report).
	OnEpoch func(EpochStat)
	// Adapter, when non-nil, is driven once per epoch after the level is
	// actuated (see core.Tuner.Adapter) — the hook an adaptive stack uses to
	// hot-swap the serving runtime's engine and contention manager at epoch
	// boundaries.
	Adapter core.Adapter
	// AfterSetup, when non-nil, runs once Run has populated the workload and
	// before any traffic is generated. Only Run calls it — bench/ opens its
	// log and takes its CPU baseline there. A colocate stack walks Start and
	// Stop, populates the workload and opens its log itself (openStack), and
	// never calls the hook. An error aborts the run.
	AfterSetup func() error
}

// DefaultQueueCap is the default admission-queue bound.
const DefaultQueueCap = 1024

// DefaultEpoch is the default tuning/reporting epoch. Longer than the
// closed-loop tuner's 10 ms tick: a p99 needs enough samples per window to
// be a signal rather than noise.
const DefaultEpoch = 250 * time.Millisecond

// EpochStat is one epoch's report: interval quantiles (not cumulative), the
// level in force, and the guard's posture.
type EpochStat struct {
	// Index is the epoch's 0-based sequence number.
	Index int
	// Level is the parallelism level actuated for the next epoch.
	Level int
	// State is the SLO stage's posture after the epoch ("" without an SLO).
	State string
	// Arrived, Completed and Shed are this epoch's deltas.
	Arrived   uint64
	Completed uint64
	Shed      uint64
	// QPS is Completed over the epoch's measured window — the time since the
	// previous epoch was sampled, not the nominal Epoch: a ticker delivers
	// late and drops ticks exactly when the host is oversubscribed.
	QPS float64
	// QueueDepth is the admission-queue depth at the epoch boundary.
	QueueDepth int
	// P50/P99/P999/Max are the epoch's latency quantiles, queueing delay
	// included (Max at bucket resolution).
	P50, P99, P999, Max time.Duration
}

// Result is the run's outcome.
type Result struct {
	// Epochs are the per-epoch reports, in order.
	Epochs []EpochStat
	// Hist is the cumulative latency histogram of every served request.
	Hist *metrics.Hist
	// Arrived counts generated requests; Admitted = Arrived - Shed.
	Arrived, Completed, Shed uint64
	// OfferedQPS is Arrived over the run; QPS is Completed over the run.
	OfferedQPS, QPS float64
	// P50/P99/P999/Max summarize the cumulative histogram.
	P50, P99, P999, Max time.Duration
	// MeanLevel is the average actuated level across epochs.
	MeanLevel float64
	// SLO carries the guard's final stats (zero without an SLO policy).
	SLO core.SLOStats
	// SLOState is the guard's final posture ("" without an SLO policy).
	SLOState string
	// Elapsed is the measured run duration.
	Elapsed time.Duration
}

// Server runs one workload under open-loop load: a generator thread emits
// the arrival schedule into the bounded admission queue, pool workers pop
// requests and execute them against the workload, and an epoch loop reports
// interval latency quantiles and hands each epoch's observation to a
// core.Tuner's decision step — the same step the closed-loop ticker calls,
// here with the p99 filled in so an SLO stage can tune against it.
//
// Start and Stop are the drive a colocate stack walks between its own Setup
// and Verify; Run is the whole lifecycle for a caller that owns nothing else.
type Server struct {
	cfg Config
	// tuner decides and actuates every level; the epoch loop is its clock.
	tuner *core.Tuner

	// Built by Start. The generator and the epoch loop exit on stop; loops
	// waits for both.
	queue   *Queue
	hists   []*metrics.Hist // per worker: single-writer record path
	pool    *pool.Pool
	arrived atomic.Uint64
	stop    chan struct{}
	loops   sync.WaitGroup
	began   time.Time
	// epochs belongs to the epoch loop until Stop has waited for it.
	epochs []EpochStat
}

// NewServer validates the configuration. The SLO default controller is a
// RUBIC starting at full level: a service entering traffic wants capacity
// first and efficiency second, so the SLO stage cuts down from the top rather
// than growing from the floor while requests queue.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("load: server needs a workload")
	}
	if cfg.Arrival == nil {
		return nil, fmt.Errorf("load: server needs an arrival process")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("load: server needs at least one worker, got %d", cfg.Workers)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("load: queue capacity %d < 1", cfg.QueueCap)
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	t := &core.Tuner{Controller: cfg.Controller, Period: cfg.Epoch, Adapter: cfg.Adapter}
	if cfg.SLO != nil {
		var err error
		if t.SLO, err = core.NewSLOGuard(*cfg.SLO); err != nil {
			return nil, err
		}
		if t.Controller == nil {
			t.Controller = core.NewRUBIC(core.RUBICConfig{MaxLevel: cfg.Workers, InitialLevel: cfg.Workers})
		}
	}
	if t.Controller == nil {
		t.Controller = core.NewStatic("fixed", cfg.Workers, cfg.Workers)
	}
	return &Server{cfg: cfg, tuner: t}, nil
}

// Run is the whole lifecycle in order: populate the workload, run the
// after-setup hook, serve for the given duration, then verify the workload's
// invariants. The returned Result is valid even when err is a verification
// failure.
func (s *Server) Run(duration time.Duration) (Result, error) {
	if duration <= 0 {
		return Result{}, fmt.Errorf("load: run duration must be positive")
	}
	w := s.cfg.Workload
	if err := w.Setup(rand.New(rand.NewSource(s.cfg.Seed))); err != nil {
		return Result{}, fmt.Errorf("load: setup %s: %w", w.Name(), err)
	}
	if s.cfg.AfterSetup != nil {
		if err := s.cfg.AfterSetup(); err != nil {
			return Result{}, fmt.Errorf("load: after-setup %s: %w", w.Name(), err)
		}
	}
	if err := s.Start(); err != nil {
		return Result{}, err
	}
	time.Sleep(duration)
	res := s.Stop()
	if err := w.Verify(); err != nil {
		return res, fmt.Errorf("load: %s verification: %w", w.Name(), err)
	}
	return res, nil
}

// Start builds the queue and the pool over the already populated workload,
// sizes the pool to the controller's level and sets the workers, the
// generator and the epoch loop running.
func (s *Server) Start() error {
	cfg := &s.cfg
	var err error
	if s.queue, err = NewQueue(cfg.QueueCap); err != nil {
		return err
	}
	keyed, _ := cfg.Workload.(Keyed)
	task := cfg.Workload.Task()
	if keyed == nil && task == nil {
		return fmt.Errorf("load: workload %s has no task", cfg.Workload.Name())
	}
	s.hists = make([]*metrics.Hist, cfg.Workers)
	for i := range s.hists {
		s.hists[i] = metrics.NewHist()
	}
	queue, hists := s.queue, s.hists // the task reads its own copies, not through s
	s.pool, err = pool.New(cfg.Workers, cfg.Seed+1, func(workerID int, rng *rand.Rand) bool {
		req, ok := queue.Pop()
		if !ok {
			return false // queue closed: the run is tearing down
		}
		var done bool
		if keyed != nil {
			done = keyed.ServeKey(workerID, req.Key, rng)
		} else {
			done = task(workerID, rng)
		}
		// Latency includes the time queued; failed requests took it too.
		hists[workerID].Record(time.Since(req.Arrival))
		return done
	})
	if err != nil {
		return err
	}
	s.tuner.Target = s.pool
	s.tuner.Hold()
	s.stop = make(chan struct{})
	s.loops.Add(2)
	go s.generate()
	s.began = time.Now()
	s.pool.Start()
	go s.epochLoop()
	return nil
}

// generate walks the arrival schedule in absolute time, so a slow consumer
// cannot stretch the schedule (that would close the loop). A late wakeup
// emits the overdue arrivals back-to-back.
func (s *Server) generate() {
	defer s.loops.Done()
	cfg := &s.cfg
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	next := time.Now()
	var seq uint64
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		next = next.Add(cfg.Arrival.Next())
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-s.stop:
				return
			case <-timer.C:
			}
		}
		key := seq
		if cfg.Keys != nil {
			key = cfg.Keys.Next()
		}
		s.queue.Offer(Request{Key: key, Seq: seq, Arrival: time.Now()})
		s.arrived.Add(1)
		seq++
	}
}

// epochLoop merges the workers' cumulative histograms every epoch,
// differences against the previous merge for the interval view, and decides
// the level. Each epoch is measured from the instant the previous one was
// sampled, so a late or dropped tick stretches the window, not the rate.
func (s *Server) epochLoop() {
	defer s.loops.Done()
	cfg := &s.cfg
	ticker := time.NewTicker(cfg.Epoch)
	defer ticker.Stop()
	prevCum := metrics.NewHist()
	var prevCompleted, prevArrived, prevShed uint64
	sampled := s.began
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		cum := s.mergedHist()
		interval := cum.Clone()
		interval.Sub(prevCum)
		prevCum = cum

		now := time.Now()
		window := now.Sub(sampled)
		sampled = now
		completed := s.pool.Completed()
		arr := s.arrived.Load()
		shed := s.queue.Shed()
		st := EpochStat{
			Index:      len(s.epochs),
			Arrived:    arr - prevArrived,
			Completed:  completed - prevCompleted,
			Shed:       shed - prevShed,
			QPS:        float64(completed-prevCompleted) / window.Seconds(),
			QueueDepth: s.queue.Len(),
			P50:        interval.P50(),
			P99:        interval.P99(),
			P999:       interval.P999(),
			Max:        interval.Quantile(1),
		}
		prevCompleted, prevArrived, prevShed = completed, arr, shed

		s.decide(&st, window)
		s.epochs = append(s.epochs, st)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(st)
		}
	}
}

// mergedHist sums the per-worker histograms; the reads are atomic, so it is
// safe while the workers keep recording.
func (s *Server) mergedHist() *metrics.Hist {
	cum := metrics.NewHist()
	for _, h := range s.hists {
		cum.Merge(h)
	}
	return cum
}

// Stop tears a started server down and summarizes the run. The order
// matters: stop the generator and the epoch loop, close the queue so workers
// blocked in Pop unblock, then stop the pool (workers exit at the loop top;
// the residual backlog is discarded, not served).
func (s *Server) Stop() Result {
	close(s.stop)
	s.loops.Wait()
	s.queue.Close()
	s.pool.Stop()
	res := Result{
		Elapsed:   time.Since(s.began),
		Epochs:    s.epochs,
		Hist:      s.mergedHist(),
		Arrived:   s.arrived.Load(),
		Completed: s.pool.Completed(),
		Shed:      s.queue.Shed(),
		MeanLevel: float64(s.pool.Level()),
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.OfferedQPS = float64(res.Arrived) / secs
		res.QPS = float64(res.Completed) / secs
	}
	res.P50 = res.Hist.P50()
	res.P99 = res.Hist.P99()
	res.P999 = res.Hist.P999()
	res.Max = res.Hist.Max()
	if len(s.epochs) > 0 {
		sum := 0
		for _, e := range s.epochs {
			sum += e.Level
		}
		res.MeanLevel = float64(sum) / float64(len(s.epochs))
	}
	if slo := s.tuner.SLO; slo != nil {
		res.SLO = slo.Stats()
		res.SLOState = slo.State().String()
	}
	return res
}

// Pool and Tuner are what a live observer samples beside the running loops
// (completions, level in force, recovered panics, resumable controller
// state); Pool is nil before Start.
func (s *Server) Pool() *pool.Pool   { return s.pool }
func (s *Server) Tuner() *core.Tuner { return s.tuner }

// decide is the epoch loop's call into the decision step: the epoch's
// measured rate, window and p99 are the observation; the step's answer and
// the SLO stage's posture after it complete the report.
func (s *Server) decide(st *EpochStat, window time.Duration) {
	st.Level = s.tuner.Step(core.Observation{Tput: st.QPS, Age: window, P99: st.P99})
	if s.tuner.SLO != nil {
		st.State = s.tuner.SLO.State().String()
	}
}
