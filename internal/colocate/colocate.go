// Package colocate runs several independent application stacks — each with
// its own workload, worker pool and parallelism controller — side by side in
// one OS process, standing in for the paper's co-located processes on hosts
// where spawning real processes with shared hardware contexts is not
// practical. The stacks share nothing but the CPU: controllers observe only
// their own pool's commit counters and decide unilaterally, exactly as the
// paper requires.
package colocate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rubic/internal/core"
	"rubic/internal/fault"
	"rubic/internal/load"
	"rubic/internal/stamp"
	"rubic/internal/stm"
	"rubic/internal/trace"
	"rubic/internal/wal"
)

// Proc describes one co-located application stack.
type Proc struct {
	// Name labels the stack in results.
	Name string
	// Workload provides the tasks (it owns its STM runtime).
	Workload stamp.Workload
	// Controller steers the stack's pool; nil pins the level at PoolSize.
	Controller core.Controller
	// PoolSize is the stack's worker count.
	PoolSize int
	// Seed derives the stack's random streams.
	Seed int64
	// ArrivalDelay postpones the stack's start relative to the group's,
	// reproducing the staggered arrivals of the paper's section 4.6.
	ArrivalDelay time.Duration
	// Faults, when non-nil, drives the stack's pool and controller injection
	// points (see internal/fault); nil keeps them inert.
	Faults *fault.Injector
	// Health, when non-nil, gives the stack's tuner a telemetry health stage
	// with this policy (hold on bad ticks, degrade to the fallback level).
	Health *core.HealthPolicy
	// Adapter, when non-nil, is driven once per tuner round after actuation —
	// the hook an AdaptiveStack uses to hot-swap the stack's engine and
	// contention manager at epoch boundaries. It requires a Controller (the
	// tuner is what delivers epochs).
	Adapter core.Adapter
	// Durable, when non-nil, opens (or recovers) a write-ahead log in
	// Durable.Dir after Setup and before traffic, attaches it to Runtime as
	// the commit sink, and closes it at teardown (see AttachDurability). The
	// workload must implement wal.DurableState and Runtime must be its own
	// runtime.
	Durable *wal.Options
	// Runtime is the workload's STM runtime; required only when Durable is
	// set.
	Runtime *stm.Runtime
	// Serve, when non-nil, drives the stack open loop: a load.Server offers
	// requests on Serve's arrival schedule whatever the stack absorbs, and
	// its epoch loop is the tuner's clock (see load.Config for the arrival,
	// keys, queue bound, epoch, SLO and OnEpoch). nil is the closed loop:
	// every worker draws its next task as soon as the last one ends. The
	// stack fills Serve's Workload, Workers, Seed, Controller and Adapter
	// from the fields above, so what is set there is never read; nor is
	// AfterSetup, which is load.Server.Run's hook (the stack populates the
	// workload and opens the log itself).
	//
	// A serving stack takes no Health stage and no Faults: an idle open-loop
	// epoch is a zero-throughput sample, which the closed loop's health
	// policy would count as garbage telemetry and degrade on, and the
	// injection points are wired to the closed-loop ticker. NewGroup refuses
	// both rather than ignore them.
	Serve *load.Config
}

// Result is one stack's outcome.
type Result struct {
	Name string
	// Completed is the number of finished tasks.
	Completed uint64
	// Throughput is Completed over the stack's own active time.
	Throughput float64
	// MeanLevel is the time-averaged parallelism level (PoolSize when no
	// controller is attached).
	MeanLevel float64
	// Levels traces the controller's decisions (nil without a controller).
	Levels *trace.Series
	// Faults is the pool's recovered-panic count over the run.
	Faults uint64
	// Level is the pool's parallelism level when the result was taken; Ctl
	// the controller's last published resumable state (nil before the first
	// decision, and for policies that are not resumable).
	Level int
	Ctl   *core.TuningState
	// Wal summarizes the stack's durability outcome (nil without Durable).
	Wal *WalResult
	// Serve is the open-loop outcome — arrivals, shed, latency quantiles,
	// per-epoch reports, SLO posture (nil for a closed-loop stack; zero for
	// a serving stack the group aborted before its arrival).
	Serve *load.Result
}

// WalResult is one durable stack's log outcome.
type WalResult struct {
	// Recovered describes what the log replayed at open.
	Recovered wal.Recovered
	// LastCSN is the highest commit sequence number issued this run.
	LastCSN uint64
	// DurableCSN is the highest CSN known persisted at close.
	DurableCSN uint64
	// Lost reports that the log degraded to in-memory mode (fsync failure or
	// torn write); LostErr carries the cause. A lost log does not fail the
	// run — the stack keeps serving, explicitly non-durable — it is the
	// caller's signal to alarm.
	Lost    bool
	LostErr error
	// Batches and Records count the logger's write calls and the records
	// they carried (Records/Batches is the group-commit factor); Snapshots
	// the compactions taken; RingFullWaits the times a committer parked on
	// a full commit ring. All since the log was opened.
	Batches, Records, Snapshots, RingFullWaits uint64
}

// Group is a set of co-located stacks.
type Group struct {
	procs  []Proc
	period time.Duration
	// Grace bounds Run's teardown: once the run deadline passes, stacks get
	// this much longer to stop before Run gives up on them and returns an
	// error naming the wedged stacks instead of hanging (default 5 s).
	Grace time.Duration
}

// NewGroup validates the stacks and returns a group. period is the
// controllers' monitoring period (default 10 ms).
func NewGroup(procs []Proc, period time.Duration) (*Group, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("colocate: no stacks")
	}
	names := map[string]struct{}{}
	for i, p := range procs {
		if p.Name == "" {
			return nil, fmt.Errorf("colocate: stack %d has no name", i)
		}
		if _, dup := names[p.Name]; dup {
			return nil, fmt.Errorf("colocate: duplicate stack name %q", p.Name)
		}
		names[p.Name] = struct{}{}
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("colocate: stack %s: %w", p.Name, err)
		}
	}
	if period <= 0 {
		period = core.DefaultPeriod
	}
	return &Group{procs: procs, period: period}, nil
}

// validate is everything about one stack that can be refused from its
// description alone — before any workload is populated or any log opened.
func (p *Proc) validate() error {
	switch _, durable := p.Workload.(wal.DurableState); {
	case p.Workload == nil:
		return errors.New("no workload")
	case p.PoolSize < 1:
		return fmt.Errorf("pool size %d", p.PoolSize)
	case p.Durable != nil && p.Runtime == nil:
		return errors.New("durable stack needs its workload's runtime")
	case p.Durable != nil && !durable:
		return errors.New("workload has no durable state (wal.DurableState)")
	case p.Serve == nil:
		return nil
	case p.Faults != nil:
		return errors.New("fault injection is not wired for the open-loop drive")
	case p.Health != nil:
		return errors.New("the health stage is not wired for the open-loop drive")
	case p.Serve.Arrival == nil:
		return errors.New("serving stack needs an arrival process")
	}
	return nil
}

// Run opens every stack, starts each at its arrival delay, lets the group run
// for the given duration, stops everything, finishes every stack (log
// outcomes, workload invariants) and returns per-stack results in input
// order. An error beside nil results is a set-up failure — nothing ran; any
// later error (a failed, wedged or unverified stack) comes beside every
// finished stack's result.
func (g *Group) Run(duration time.Duration) ([]Result, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("colocate: duration must be positive")
	}
	for _, p := range g.procs {
		if duration <= p.ArrivalDelay {
			return nil, fmt.Errorf("colocate: %s arrives after the run ends", p.Name)
		}
	}
	// Opening is sequential and up front so arrival delays measure pure
	// execution, not population or recovery.
	stacks := make([]*stack, len(g.procs))
	for i := range g.procs {
		s, err := openStack(&g.procs[i], g.period)
		if err != nil {
			for _, open := range stacks[:i] {
				if open.log != nil {
					open.log.Close()
				}
			}
			return nil, err
		}
		stacks[i] = s
	}

	// The first stack failure cancels run, so the surviving stacks cut theirs
	// short instead of burning the full duration; its cause — already
	// labelled with the stack's name — is what Run returns.
	run, fail := context.WithCancelCause(context.Background())
	defer fail(nil)
	// sleep waits for d but returns early (false) once the group aborts.
	sleep := func(d time.Duration) bool {
		timeout, cancel := context.WithTimeout(run, d)
		defer cancel()
		<-timeout.Done()
		return run.Err() == nil
	}
	var wg sync.WaitGroup
	// finished flags each stack's goroutine completion so a wedged teardown
	// can be attributed to the stacks actually stuck in it.
	finished := make([]atomic.Bool, len(g.procs))
	start := time.Now()
	for i, s := range stacks {
		wg.Add(1)
		go func(i int, s *stack) {
			defer wg.Done()
			defer finished[i].Store(true)
			if !sleep(s.p.ArrivalDelay) {
				return
			}
			if err := s.start(); err != nil {
				fail(err)
				return
			}
			sleep(duration - time.Since(start))
			s.stop()
		}(i, s)
	}
	// Bounded teardown: a wedged stack (a task that never returns keeps its
	// pool's Stop from completing) must not hang the whole run. Past the run
	// deadline plus the grace period, give up and name the stuck stacks; their
	// goroutines are unrecoverable in-process, but the caller gets its control
	// flow — and every healthy stack's results — back.
	grace := g.Grace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()
	deadline := time.NewTimer(time.Until(start.Add(duration)) + grace)
	defer deadline.Stop()
	select {
	case <-allDone:
	case <-deadline.C:
	}
	// Every stopped stack's pool is down, so no commit of its can still
	// publish: finish it. A wedged stack is left alone — its workers may
	// still be committing, so its log stays open and its result is its name.
	results := make([]Result, len(g.procs))
	var wedged []string
	var verifyErr error
	for i, s := range stacks {
		if !finished[i].Load() {
			results[i].Name = s.p.Name
			wedged = append(wedged, s.p.Name)
			continue
		}
		var err error
		if results[i], err = s.finish(); err != nil && verifyErr == nil {
			verifyErr = err
		}
	}
	if wedged != nil {
		return results, fmt.Errorf("colocate: teardown wedged %v past the deadline; stacks still stopping: %s",
			grace, strings.Join(wedged, ", "))
	}
	if err := context.Cause(run); err != nil {
		return results, err
	}
	return results, verifyErr
}
