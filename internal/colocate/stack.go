package colocate

import (
	"fmt"
	"math/rand"
	"time"

	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/pool"
	"rubic/internal/trace"
	"rubic/internal/wal"
)

// stack is the lifecycle of one stack — the paper's unit of deployment:
// workload + STM runtime + malleable pool + monitor loop, deciding alone.
// Every driver walks the same four steps (openStack, start, stop, finish):
// Group.Run schedules N of them, RunStack — the process-mode agent — walks
// one. What differs between stacks is only the drive between start and stop,
// picked by Proc.Serve: the closed loop is a pool over the workload's task
// and the tuner on its own ticker; the open loop is a load.Server, whose
// epoch loop is the tuner's clock.
type stack struct {
	p      *Proc
	period time.Duration
	log    *wal.Log
	server *load.Server // the open-loop drive; nil for the closed loop
	pool   *pool.Pool
	tuner  *core.Tuner
	levels *trace.Series
	began  time.Time
	active time.Duration
	served load.Result // what server.Stop reported
}

// openStack populates the workload and, for a durable stack, opens (or
// recovers) its log — before any traffic exists to log.
func openStack(p *Proc, period time.Duration) (*stack, error) {
	s := &stack{p: p, period: period}
	if p.Serve != nil {
		cfg := *p.Serve
		cfg.Workload, cfg.Workers, cfg.Seed = p.Workload, p.PoolSize, p.Seed
		cfg.Controller, cfg.Adapter = p.Controller, p.Adapter
		var err error
		if s.server, err = load.NewServer(cfg); err != nil {
			return nil, fmt.Errorf("colocate: %s: %w", p.Name, err)
		}
	}
	if err := p.Workload.Setup(rand.New(rand.NewSource(p.Seed))); err != nil {
		return nil, fmt.Errorf("colocate: setup %s: %w", p.Name, err)
	}
	if p.Durable != nil {
		l, err := AttachDurability(p.Workload, p.Runtime, *p.Durable)
		if err != nil {
			return nil, fmt.Errorf("colocate: durability %s: %w", p.Name, err)
		}
		s.log = l
	}
	return s, nil
}

// start builds the pool and the monitor loop and sets both running.
func (s *stack) start() error {
	p := s.p
	if s.server != nil {
		if err := s.server.Start(); err != nil {
			return fmt.Errorf("colocate: %s: %w", p.Name, err)
		}
		s.pool, s.tuner, s.began = s.server.Pool(), s.server.Tuner(), time.Now()
		return nil
	}
	pl, err := pool.New(p.PoolSize, p.Seed+1, p.Workload.Task())
	if err != nil {
		return fmt.Errorf("colocate: %s: %w", p.Name, err)
	}
	pl.InstallFaults(p.Faults)
	s.pool = pl
	if p.Controller != nil {
		s.levels = trace.NewSeries(p.Name + "/level")
		s.tuner = &core.Tuner{
			Controller: p.Controller,
			Target:     pl,
			Period:     s.period,
			Levels:     s.levels,
			Faults:     p.Faults,
			Adapter:    p.Adapter,
		}
		if p.Health != nil {
			health := core.NewHealthGuard(*p.Health)
			s.tuner.Health = health
			if s.log != nil {
				// A stack that is silently non-durable should not also be
				// running wide: straight to the fallback level. The pool
				// keeps serving.
				s.log.SetLostHook(func(error) { health.Escalate() })
			}
		}
	} else {
		pl.SetLevel(p.PoolSize)
	}
	s.began = time.Now()
	pl.Start()
	if s.tuner != nil {
		s.tuner.Start()
	}
	return nil
}

// stop halts the monitor loop, then the pool; once it returns no commit can
// still publish. A stack that never started has nothing to stop.
func (s *stack) stop() {
	switch {
	case s.pool == nil:
		return
	case s.server != nil:
		s.served = s.server.Stop()
	default:
		if s.tuner != nil {
			s.tuner.Stop()
		}
		s.pool.Stop()
	}
	s.active = time.Since(s.began)
}

// observe reads the stack's state; safe beside the running pool and monitor
// loop, since every source is an atomic counter or a published copy.
func (s *stack) observe() Result {
	res := Result{Name: s.p.Name, Levels: s.levels}
	if s.pool != nil {
		res.Completed, res.Level, res.Faults = s.pool.Completed(), s.pool.Level(), s.pool.Faults()
	}
	if s.tuner != nil {
		if st, ok := s.tuner.TuningState(); ok {
			res.Ctl = &st
		}
	}
	if s.log != nil {
		res.Wal = readLog(s.log)
	}
	return res
}

// finish closes the log and audits the workload's invariants. The Result is
// complete even when verification fails or the stack never started. A log
// that lost durability is a flag on it, not an error: the stack kept serving.
func (s *stack) finish() (Result, error) {
	res := s.observe()
	if secs := s.active.Seconds(); secs > 0 {
		res.Throughput = float64(res.Completed) / secs
	}
	res.MeanLevel = float64(s.p.PoolSize)
	if s.levels != nil && s.levels.Len() > 0 {
		res.MeanLevel = s.levels.Mean()
	}
	if s.server != nil {
		res.Serve, res.MeanLevel = &s.served, s.served.MeanLevel
	}
	if s.log != nil {
		res.Wal = closeLog(s.log)
	}
	if err := s.p.Workload.Verify(); err != nil {
		return res, fmt.Errorf("colocate: %s verification: %w", s.p.Name, err)
	}
	return res, nil
}

// RunStack walks one stack through its whole lifecycle, running it for as
// long as body does. body receives a sampler of the live stack (the Result so
// far) and owns the clock — the process-mode agent streams telemetry from it
// until its deadline or an interrupt. An error before body ran is a set-up
// failure; after, a verification failure beside the complete Result.
func RunStack(p Proc, period time.Duration, body func(live func() Result)) (Result, error) {
	g, err := NewGroup([]Proc{p}, period)
	if err != nil {
		return Result{}, err
	}
	s, err := openStack(&g.procs[0], g.period)
	if err != nil {
		return Result{}, err
	}
	if err := s.start(); err != nil {
		s.finish() // closes the log
		return Result{}, err
	}
	body(s.observe)
	s.stop()
	return s.finish()
}
