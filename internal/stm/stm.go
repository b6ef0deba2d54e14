// Package stm implements a software transactional memory runtime in the
// style of TL2/SwissTM: a global version clock, per-location versioned
// write-locks, eager write locking with commit-time write-back, invisible
// readers validated by timestamp with lazy snapshot extension, and pluggable
// contention management.
//
// It is the substrate the RUBIC reproduction runs its STAMP-style workloads
// on, standing in for the paper's RSTM framework with the SwissTM runtime.
//
// Typical use:
//
//	rt := stm.New(stm.Config{})
//	x := stm.NewVar(0)
//	err := rt.Atomic(func(tx *stm.Tx) error {
//	    x.Write(tx, x.Read(tx)+1)
//	    return nil
//	})
//
// Conflicts are handled internally with automatic retry; the error returned
// by Atomic is non-nil only when the user function returned an error (the
// transaction is then rolled back and not retried) or when Config.MaxRetries
// is exhausted.
//
// The hot path is engineered to be allocation-free and contention-resilient
// (DESIGN.md §8): Tx contexts are recycled through a per-runtime sync.Pool
// with capped reuse of their read/write sets, so a steady-state AtomicRO
// block performs zero heap allocations and an update transaction allocates
// only a box per written value too wide for a Var's own words (kind.go);
// commit/abort statistics land on cache-line padded shards instead of one
// shared line; and commit timestamps come from a lazy GV4-style clock
// protocol.
package stm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"rubic/internal/metrics"
)

// Config parameterizes a Runtime.
type Config struct {
	// CM selects the contention manager; nil defaults to BackoffCM{}. Only
	// the TL2 engine consults it for conflicts (NOrec has no per-location
	// owners); both use it to pace retries.
	CM ContentionManager
	// MaxRetries bounds the number of attempts per atomic block; 0 means
	// unlimited. When exhausted, Atomic returns ErrTooManyRetries.
	MaxRetries int
	// Algorithm selects the concurrency-control engine; defaults to TL2.
	Algorithm Algorithm
}

// ErrTooManyRetries is returned by Atomic when Config.MaxRetries attempts
// all aborted.
var ErrTooManyRetries = errors.New("stm: transaction exceeded retry limit")

// maxRetainedEntries caps the read/write/value-log capacity a pooled Tx
// keeps between atomic blocks; a rare huge transaction releases its
// oversized sets back to the garbage collector instead of pinning them.
const maxRetainedEntries = 1 << 14

// Runtime is an STM instance: a version clock, a contention manager and
// statistics. Independent Runtimes are fully isolated; Vars are implicitly
// bound to whichever Runtime's transactions access them, so a Var must not
// be shared across Runtimes.
type Runtime struct {
	cfg   Config
	clock clock      // cache-line padded: every commit writes it
	norec norecState // cache-line padded: every NOrec commit writes it

	// algoAtom holds the active engine and cmAtom the active contention
	// manager. Both are atomics because SwitchEngine/SetContentionManager may
	// replace them at any epoch boundary while transactions run (DESIGN.md
	// §12): the CM swaps without any drain (managers affect only liveness —
	// who waits or aborts — never which committed state is visible), while
	// engine swaps go through the quiesce gate below so no transaction ever
	// observes a mid-swap engine.
	algoAtom atomic.Uint32
	cmAtom   atomic.Pointer[cmSlot]

	// swGate is nonzero while an engine switch is draining or swapping;
	// attempts starting meanwhile park in enter. swMu serializes switchers;
	// norecMark remembers the NOrec sequence value at the start of the
	// current NOrec era so the TL2 clock can be re-seeded with the era's
	// writer commits on the way out (guarded by swMu).
	swGate    metrics.PaddedUint64
	swMu      sync.Mutex
	norecMark uint64

	// txs holds every Tx txPool has created: the set a switch drains.
	// sync.Pool drops objects at garbage collection, so the pointers are
	// weak, and register compacts the dead ones away when the slice is full.
	txsMu sync.Mutex
	txs   []weak.Pointer[Tx]

	// engineSwitches/cmSwitches count completed swaps, for telemetry.
	engineSwitches atomic.Uint64
	cmSwitches     atomic.Uint64

	// sigAgg is the rolling OR-aggregate of committed writers' wsig
	// signatures, decayed by commit timestamp (noteCommit). ConflictProfile
	// estimates conflict degree from signature overlap against it.
	sigAgg metrics.PaddedUint64

	// sinkAtom holds the attached CommitSink (durable.go), or nil. Commits
	// load it once after winning their critical section; the non-durable
	// configuration pays one atomic load and a nil test per writer commit.
	sinkAtom atomic.Pointer[CommitSink]

	// tsc is the birth-timestamp source. Only blocks that begin under a
	// manager ordering by birth, and nextRand's first seed, draw from it;
	// each draw writes a shared word, so like the clock it lives alone on
	// its cache line instead of bouncing the read-mostly fields around it.
	tsc   metrics.PaddedUint64
	stats runtimeStats

	// txPool recycles Tx contexts so steady-state atomic blocks allocate
	// nothing. shardSeq deals statistics shards to new Txs round-robin;
	// because sync.Pool is per-P, a recycled Tx (and therefore its shard)
	// sticks to a P and counter updates stay core-local.
	txPool   sync.Pool
	shardSeq atomic.Uint64
}

// New returns a Runtime with the given configuration.
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg, stats: newRuntimeStats()}
	rt.algoAtom.Store(uint32(cfg.Algorithm))
	rt.cmAtom.Store(newCMSlot(cfg.CM))
	rt.txPool.New = func() any {
		tx := &Tx{rt: rt, shard: int(rt.shardSeq.Add(1))}
		tx.status.Store(txPoisoned) // idle until its first enter
		rt.register(tx)
		return tx
	}
	return rt
}

// register adds a new Tx to the set SwitchEngine drains. When the slice is
// full it first drops the Txs the collector has freed, so it grows only
// when every entry is live and stays within twice the peak live count. It
// compacts into a copy because a drain walks the slice it loaded without
// holding txsMu.
func (rt *Runtime) register(tx *Tx) {
	rt.txsMu.Lock()
	defer rt.txsMu.Unlock()
	if len(rt.txs) == cap(rt.txs) {
		rt.txs = slices.DeleteFunc(slices.Clone(rt.txs), func(p weak.Pointer[Tx]) bool { return p.Value() == nil })
	}
	rt.txs = append(rt.txs, weak.Make(tx))
}

// engine returns the active engine. Within one transaction attempt every
// call returns the same value: attempts run inside the quiesce gate, and
// SwitchEngine only stores a new engine after the gate has drained.
//
//rubic:noalloc
func (rt *Runtime) engine() Algorithm { return Algorithm(rt.algoAtom.Load()) }

// curCM returns the active contention manager.
//
//rubic:noalloc
func (rt *Runtime) curCM() ContentionManager { return rt.cmAtom.Load().cm }

// Algorithm reports the runtime's engine.
func (rt *Runtime) Algorithm() Algorithm { return rt.engine() }

// Atomic executes fn transactionally, retrying on conflicts until it
// commits, fn returns an error, or the retry limit is exhausted.
//
// fn must confine all shared-state access to Var Read/Write through tx, must
// not retain tx, and must be safe to re-execute (side effects outside the
// STM should be buffered until Atomic returns).
func (rt *Runtime) Atomic(fn func(tx *Tx) error) error {
	return rt.run(fn, false)
}

// AtomicRO executes fn as a read-only transaction: reads skip read-set
// bookkeeping entirely (in-flight validation still guarantees a consistent
// snapshot) and writes panic. Prefer it for lookup-dominated operations.
func (rt *Runtime) AtomicRO(fn func(tx *Tx) error) error {
	return rt.run(fn, true)
}

// begin checks a pooled Tx out for one atomic block: zero karma, a birth
// timestamp if the installed manager orders by birth, whether its locks
// publish an owner, and an active status past the engine-switch gate. Every
// block — Runtime.run's and each CrossTx sub-transaction — starts here and
// ends in release, so the fixed cost of a block exists once.
func (rt *Runtime) begin(readOnly bool) *Tx {
	tx := rt.txPool.Get().(*Tx)
	tx.readOnly = readOnly
	tx.work = 0
	tx.birth = 0
	slot := rt.cmAtom.Load()
	if slot.byBirth {
		tx.birth = rt.tsc.Add(1)
	}
	tx.publishes = slot.readsOwner
	rt.enter(tx)
	return tx
}

func (rt *Runtime) run(fn func(tx *Tx) error, readOnly bool) error {
	tx := rt.begin(readOnly)
	defer rt.release(tx)
	for attempt := 0; ; attempt++ {
		if rt.cfg.MaxRetries > 0 && attempt >= rt.cfg.MaxRetries {
			return fmt.Errorf("%w (after %d attempts)", ErrTooManyRetries, attempt)
		}
		if attempt > 0 {
			// Between attempts nothing is held: the attempt re-enters, where
			// a pending engine switch parks it.
			rt.enter(tx)
			rt.curCM().BeforeRetry(tx, attempt)
		}
		tx.attempt = attempt
		tx.reset()
		userErr, conflicted, retried := tx.execute(fn)
		if retried {
			// Tx.Retry: block until a watched location changes, then
			// re-execute the whole block.
			if err := tx.waitForChange(); err != nil {
				return err
			}
			rt.stats.retryWaits.Add(tx.shard, 1)
			continue
		}
		if conflicted {
			rt.stats.aborts.Add(tx.shard, 1)
			continue
		}
		if userErr != nil {
			tx.rollback()
			rt.stats.userAborts.Add(tx.shard, 1)
			return userErr
		}
		if tx.commit() {
			rt.noteCommit(tx)
			tx.waitDurable()
			return nil
		}
		rt.stats.aborts.Add(tx.shard, 1)
	}
}

// release ends the block begin started and returns the Tx to the pool. Its
// one status store bumps the generation and poisons the Tx, which is also
// the block's exit from the engine-switch gate; poisoning first makes a
// leaked handle fail loudly on its next transactional operation instead of
// corrupting whatever atomic block recycles the object next. The attempt
// state is cleared so pooled Txs don't pin user values for the garbage
// collector, and oversized sets are dropped entirely.
func (rt *Runtime) release(tx *Tx) {
	tx.status.Store((tx.generation()+1)<<stateBits | txPoisoned)
	tx.noteUsed()
	tx.reads = clearUsed(tx.reads, tx.usedReads)
	tx.vreads = clearUsed(tx.vreads, tx.usedVreads)
	tx.writes = clearUsed(tx.writes, tx.usedWrites)
	tx.usedReads, tx.usedVreads, tx.usedWrites = 0, 0, 0
	// Only a committing attempt fills durOps, so its length is its mark.
	tx.durOps = clearUsed(tx.durOps, len(tx.durOps))
	tx.sink = nil
	tx.csn = 0
	if len(tx.windex) > maxRetainedEntries {
		tx.windex = nil // Go maps never shrink; drop outsized indexes
	} else if len(tx.windex) > 0 {
		clear(tx.windex)
	}
	rt.txPool.Put(tx)
}

// clearUsed zeroes s[:used] and returns s empty, or nil when its capacity
// exceeds the retention cap. used is the longest s grew during the block:
// everything beyond it has been zero since the backing array was allocated
// or last released, so the references the GC must not see pinned are all
// inside the prefix, and a pooled Tx that once hosted a huge transaction
// does not pay for its capacity on every small one.
func clearUsed[E any](s []E, used int) []E {
	if cap(s) > maxRetainedEntries {
		return nil
	}
	clear(s[:used])
	return s[:0]
}

// execute runs one attempt of fn, converting the internal conflict and
// retry panics into (rolled back) indications while letting any other panic
// propagate after releasing the attempt's locks.
func (tx *Tx) execute(fn func(tx *Tx) error) (userErr error, conflicted, retried bool) {
	defer func() {
		if r := recover(); r != nil {
			tx.rollback()
			switch sig := r.(type) {
			case conflictSignal:
				tx.rt.stats.conflicts[sig.reason].Add(tx.shard, 1)
				conflicted = true
			case retrySignal:
				retried = true
			default:
				panic(r)
			}
		}
	}()
	return fn(tx), false, false
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats { return rt.stats.snapshot() }

// ResetStats zeroes the runtime's counters, e.g. between measurement rounds.
func (rt *Runtime) ResetStats() { rt.stats.reset() }

// ContentionManagerName reports the active contention policy.
func (rt *Runtime) ContentionManagerName() string { return rt.curCM().Name() }

// GlobalVersion exposes the current value of the version clock for tests and
// diagnostics.
func (rt *Runtime) GlobalVersion() uint64 { return rt.clock.now() }
