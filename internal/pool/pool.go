// Package pool implements the malleable worker thread-pool of the paper's
// Algorithm 1: a fixed set of workers, each with a unique id and a private
// semaphore, gated by a process-wide parallelism level L. Workers with
// tid >= L park on their semaphore before acquiring the next task; raising
// the level signals exactly the semaphores of the newly admitted workers.
// Each worker maintains a cache-line padded completion counter (one shard of
// a metrics.ShardedCounter, the same primitive the STM runtime shards its
// statistics over) that a monitoring thread reads without synchronizing with
// the worker (paper section 3.1: writers never contend, the monitor only
// reads).
package pool

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"rubic/internal/fault"
	"rubic/internal/metrics"
)

// Task is one unit of work (typically: execute one transaction). It receives
// the worker's id and a worker-private random source, and reports whether
// the unit completed (completed units increment the worker's counter).
type Task func(workerID int, rng *rand.Rand) bool

// Pool is a malleable pool of workers executing a Task in a closed loop.
// The parallelism level can be changed at any time with SetLevel.
type Pool struct {
	size int
	task Task
	seed int64

	// level and active are the pool's two globally shared hot words: every
	// worker polls level once per task and the controller swaps it on each
	// actuation, while active is written on every admission transition and
	// read by the monitor. Both are cache-line padded (metrics.PaddedInt32/
	// PaddedInt64) so a level actuation or admission bump does not
	// invalidate the line the other workers' task loops are reading — the
	// same false-sharing discipline the STM applies to its global clock.
	level metrics.PaddedInt32
	// stopped is what a running worker polls once per task: one load, where
	// a select on stop is a runtime call. stop is closed right after it is
	// set and wakes the workers blocked on a semaphore or in a stall, which
	// cannot poll.
	stopped atomic.Bool
	stop    chan struct{}
	sems    []chan struct{}
	count   *metrics.ShardedCounter // shard = worker id
	faults  *metrics.ShardedCounter // shard = worker id; recovered task panics
	active  metrics.PaddedInt64     // workers currently holding a gate slot
	inj     *fault.Injector         // nil: no chaos (one pointer test per task)

	startOnce sync.Once
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New creates a pool of size workers running task, initially at level 1
// (the paper starts every process at minimum parallelism). seed derives the
// per-worker random sources, keeping runs reproducible.
func New(size int, seed int64, task Task) (*Pool, error) {
	if size < 1 {
		return nil, fmt.Errorf("pool: size %d < 1", size)
	}
	if task == nil {
		return nil, fmt.Errorf("pool: nil task")
	}
	p := &Pool{
		size:   size,
		task:   task,
		seed:   seed,
		stop:   make(chan struct{}),
		sems:   make([]chan struct{}, size),
		count:  metrics.NewShardedCounter(size),
		faults: metrics.NewShardedCounter(size),
	}
	for i := range p.sems {
		p.sems[i] = make(chan struct{}, 1)
	}
	p.level.Store(1)
	return p, nil
}

// Size returns the pool's worker count (the maximum parallelism level).
func (p *Pool) Size() int { return p.size }

// Level returns the current parallelism level.
//
//rubic:noalloc
func (p *Pool) Level() int { return int(p.level.Load()) }

// SetLevel changes the number of admitted workers, clamped to [1, Size].
// Newly admitted workers are woken; workers above the level park themselves
// before their next task acquisition, exactly as in Algorithm 1.
func (p *Pool) SetLevel(n int) {
	if n < 1 {
		n = 1
	}
	if n > p.size {
		n = p.size
	}
	old := int(p.level.Swap(int32(n)))
	for tid := old; tid < n; tid++ {
		select {
		case p.sems[tid] <- struct{}{}:
		default: // already signalled
		}
	}
}

// Start launches the workers. It is idempotent.
func (p *Pool) Start() {
	p.startOnce.Do(func() {
		for tid := 0; tid < p.size; tid++ {
			p.wg.Add(1)
			go p.worker(tid)
		}
	})
}

// Stop terminates all workers (parked or running after their current task)
// and waits for them to exit. It is idempotent.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() {
		p.stopped.Store(true)
		close(p.stop)
	})
	p.wg.Wait()
}

// InstallFaults installs a fault injector driving the pool.panic and
// pool.stall injection points. Call before Start; a nil injector (the
// default) keeps the worker loop's fault hooks inert.
func (p *Pool) InstallFaults(in *fault.Injector) { p.inj = in }

// worker is Algorithm 1's task-acquisition loop, hardened: the gate slot a
// worker holds (its contribution to Active) is released on every exit path —
// including exiting between acquiring the gate and running its first task —
// and task panics are recovered in runTask so one poisoned transaction body
// can neither kill the process nor wedge the gate.
func (p *Pool) worker(tid int) {
	defer p.wg.Done()
	admitted := false
	release := func() {
		if admitted {
			admitted = false
			p.active.Add(-1)
		}
	}
	defer release()
	rng := rand.New(rand.NewSource(p.seed + int64(tid)*1_000_003))
	for {
		if p.stopped.Load() {
			return
		}
		if tid >= int(p.level.Load()) {
			release()
			// Park until admitted again. The normal acquisition path above
			// performs no blocking call, mirroring the paper's observation
			// that Wait only happens when a thread must block.
			select {
			case <-p.sems[tid]:
				continue // re-check the level before working
			case <-p.stop:
				return
			}
		}
		if !admitted {
			admitted = true
			p.active.Add(1)
		}
		if p.inj != nil && p.inj.Fire(fault.WorkerStall) {
			// A stalled worker sits in the task slot without progressing; it
			// stays interruptible by Stop so the fault models a wedged
			// transaction body, not an unkillable thread.
			<-p.stop
			return
		}
		if p.runTask(tid, rng) {
			// Only this worker writes its shard; the monitor only reads.
			p.count.Add(tid, 1)
		}
	}
}

// runTask executes one task, converting a panic raised inside the workload
// closure into a per-worker fault count. The STM layer rolls back and
// releases its locks before re-panicking user panics (stm.Tx.execute), so
// recovering here leaves the runtime consistent.
func (p *Pool) runTask(tid int, rng *rand.Rand) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			p.faults.Add(tid, 1)
			completed = false
		}
	}()
	if p.inj != nil && p.inj.Fire(fault.WorkerPanic) {
		panic(fmt.Sprintf("fault: injected panic in worker %d", tid))
	}
	return p.task(tid, rng)
}

// Completed returns the total number of completed tasks across all workers.
// The sum is not a consistent snapshot (counters advance concurrently),
// which is exactly the sampling the paper's monitoring thread performs.
func (p *Pool) Completed() uint64 {
	return p.count.Sum()
}

// PerWorkerCompleted returns each worker's completion count.
func (p *Pool) PerWorkerCompleted() []uint64 {
	return p.count.PerShard()[:p.size]
}

// Faults returns the total number of recovered task panics.
func (p *Pool) Faults() uint64 { return p.faults.Sum() }

// PerWorkerFaults returns each worker's recovered-panic count.
func (p *Pool) PerWorkerFaults() []uint64 {
	return p.faults.PerShard()[:p.size]
}

// Active returns the number of workers currently holding a gate slot (admitted
// and inside the task loop). After Stop it is always zero: every exit path
// releases the slot, including a worker exiting between acquiring the gate
// and its first task.
func (p *Pool) Active() int { return int(p.active.Load()) }
