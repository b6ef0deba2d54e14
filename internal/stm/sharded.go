package stm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements range-sharded transactional memory: a ShardedRuntime
// is a power-of-two array of fully independent Runtimes, each with its own
// TL2 commit clock, lock words, and NOrec sequence lock. Single-shard
// transactions — the overwhelming majority under a keyed workload — run on
// their shard's Runtime untouched and never contend on another shard's
// clock or seqlock, which is what removes the single-global-word commit
// ceiling the parallel benchmarks plateau on (DESIGN.md §14).
//
// Transactions that genuinely span shards pay for it explicitly through
// AtomicAcross: a two-phase commit that validates every sub-transaction's
// reads at one point in time and merges the participating TL2 clocks to a
// single commit timestamp (raiseTo), so cross-shard serializability is
// preserved without slowing the single-shard fast path at all. Cross-shard
// transactions serialize among themselves on one mutex — the deliberate
// cost model: spanning shards is the rare case and pays; staying inside a
// shard is the common case and does not.

// ErrCrossShardDurable is returned by AtomicAcross when any shard has a
// CommitSink attached. The WAL draws its commit sequence numbers inside one
// runtime's commit critical section; a cross-shard commit has no single
// critical section, so durable deployments must keep transactions
// single-shard (or shard the log itself — see internal/wal's scale-out
// notes).
var ErrCrossShardDurable = errors.New("stm: cross-shard transactions are not supported while a commit sink is attached")

// ShardedRuntime partitions transactional state across independent
// per-shard Runtimes. Route single-shard work with AtomicKey/AtomicROKey
// (or Shard/ForKey for direct access); span shards with AtomicAcross. A Var
// belongs to exactly one shard for its lifetime: every transactional access
// to it must go through that shard's Runtime (containers handle the routing
// — see container.ShardedHashMap).
type ShardedRuntime struct {
	shards []*Runtime
	shift  uint // ShardFor uses the hash's top bits: index = hash >> shift

	// crossMu serializes cross-shard transactions against each other, which
	// removes cross-cross deadlock and validation races by construction.
	// Single-shard transactions never touch it.
	crossMu      sync.Mutex
	crossPool    sync.Pool
	crossCommits atomic.Uint64
}

// NewSharded returns a runtime with n independent shards (rounded up to a
// power of two, minimum 1), each configured with cfg.
func NewSharded(n int, cfg Config) *ShardedRuntime {
	if n < 1 {
		n = 1
	}
	size := 1 << bits.Len(uint(n-1))
	if size < n {
		size = n // unreachable; defensive
	}
	sr := &ShardedRuntime{
		shards: make([]*Runtime, size),
		shift:  uint(64 - bits.Len(uint(size-1))),
	}
	if size == 1 {
		sr.shift = 64
	}
	for i := range sr.shards {
		sr.shards[i] = New(cfg)
	}
	sr.crossPool.New = func() any {
		return &CrossTx{sr: sr, txs: make([]*Tx, len(sr.shards))}
	}
	return sr
}

// Shards reports the shard count.
func (sr *ShardedRuntime) Shards() int { return len(sr.shards) }

// Shard returns shard i's Runtime for direct use (statistics, engine
// switches, or running transactions known to be confined to it).
func (sr *ShardedRuntime) Shard(i int) *Runtime { return sr.shards[i] }

// ShardFor maps a key to its owning shard index (Fibonacci hash on the top
// bits, so dense int64 key spaces spread evenly).
//
//rubic:noalloc
func (sr *ShardedRuntime) ShardFor(key uint64) int {
	if sr.shift >= 64 {
		return 0
	}
	return int((key * 0x9E3779B97F4A7C15) >> sr.shift)
}

// ForKey returns the Runtime owning key.
//
//rubic:noalloc
func (sr *ShardedRuntime) ForKey(key uint64) *Runtime {
	return sr.shards[sr.ShardFor(key)]
}

// AtomicKey runs fn as a transaction on key's shard: the single-shard fast
// path, identical in cost to a plain Runtime.Atomic.
func (sr *ShardedRuntime) AtomicKey(key uint64, fn func(tx *Tx) error) error {
	return sr.ForKey(key).Atomic(fn)
}

// AtomicROKey is AtomicKey's read-only form.
func (sr *ShardedRuntime) AtomicROKey(key uint64, fn func(tx *Tx) error) error {
	return sr.ForKey(key).AtomicRO(fn)
}

// SwitchEngine switches every shard to the given engine. Cross-shard
// transactions are held off for the sweep so they always observe a uniform
// engine set; single-shard traffic drains per shard exactly as in
// Runtime.SwitchEngine.
func (sr *ShardedRuntime) SwitchEngine(to Algorithm) {
	sr.crossMu.Lock()
	defer sr.crossMu.Unlock()
	for _, rt := range sr.shards {
		rt.SwitchEngine(to)
	}
}

// SetContentionManager installs cm on every shard.
func (sr *ShardedRuntime) SetContentionManager(cm ContentionManager) {
	for _, rt := range sr.shards {
		rt.SetContentionManager(cm)
	}
}

// Stats folds every shard's counters into one snapshot.
func (sr *ShardedRuntime) Stats() Stats {
	var total Stats
	total.Conflicts = make(map[ConflictKind]uint64)
	for _, rt := range sr.shards {
		s := rt.Stats()
		total.Commits += s.Commits
		total.ReadOnlyCommits += s.ReadOnlyCommits
		total.Aborts += s.Aborts
		total.UserAborts += s.UserAborts
		total.Extensions += s.Extensions
		total.RetryWaits += s.RetryWaits
		total.ReadSetSum += s.ReadSetSum
		total.WriteSetSum += s.WriteSetSum
		total.SigBits += s.SigBits
		total.SigOverlap += s.SigOverlap
		for k, v := range s.Conflicts {
			total.Conflicts[k] += v
		}
	}
	return total
}

// CrossCommits reports committed cross-shard transactions, for telemetry
// and tests.
func (sr *ShardedRuntime) CrossCommits() uint64 { return sr.crossCommits.Load() }

// seqHold records one NOrec shard sequence lock held by a cross-shard
// commit: the runtime and the even sequence value it was acquired at.
type seqHold struct {
	rt *Runtime
	s  uint64
}

// CrossTx is the handle of one cross-shard transaction attempt. On(i)
// returns the sub-transaction bound to shard i, creating it on first use;
// Var accesses go through the sub-transaction of the Var's owning shard.
// Every sub-transaction records its reads — even on shards it only reads —
// because the combined commit point is later than any individual snapshot
// and all of them must be revalidated there (the cross-shard anomaly a
// quiet read-only sub-commit would admit: observing shard A after a
// spanning writer and shard B before it).
type CrossTx struct {
	sr      *ShardedRuntime
	txs     []*Tx
	used    []int
	order   []int // used, sorted ascending: the lock-acquisition order
	holds   []seqHold
	attempt int
}

// On returns the sub-transaction for shard i, entering the shard's switch
// gate and starting the transaction on first use.
func (cx *CrossTx) On(i int) *Tx {
	if tx := cx.txs[i]; tx != nil {
		return tx
	}
	// Cross-shard sub-transactions are never read-only: their read sets are
	// the evidence the combined commit validates.
	tx := cx.sr.shards[i].begin(false)
	tx.attempt = cx.attempt
	tx.reset()
	cx.txs[i] = tx
	cx.used = append(cx.used, i)
	return tx
}

// AtomicAcross runs fn as one transaction spanning any number of shards,
// retrying on conflicts until it commits, fn errors, or the per-shard
// retry limit is exhausted. fn addresses shards through cx.On(i) and must
// route every Var access through its owning shard's sub-transaction.
// Tx.Retry is not supported inside fn. Nested AtomicAcross deadlocks (one
// mutex serializes all spanning transactions); single-shard Atomic calls
// from other goroutines proceed concurrently and conflict only through the
// ordinary per-location protocols.
func (sr *ShardedRuntime) AtomicAcross(fn func(cx *CrossTx) error) error {
	for _, rt := range sr.shards {
		if rt.sinkAtom.Load() != nil {
			return ErrCrossShardDurable
		}
	}
	sr.crossMu.Lock()
	defer sr.crossMu.Unlock()
	cx := sr.crossPool.Get().(*CrossTx)
	defer sr.crossPool.Put(cx)
	maxRetries := sr.shards[0].cfg.MaxRetries
	for attempt := 0; ; attempt++ {
		if maxRetries > 0 && attempt >= maxRetries {
			return fmt.Errorf("%w (after %d attempts)", ErrTooManyRetries, attempt)
		}
		if attempt > 0 {
			backoffSpin(attempt)
		}
		cx.attempt = attempt
		userErr, conflicted := cx.execute(fn)
		if conflicted {
			cx.finishAttempt(false)
			continue
		}
		if userErr != nil {
			cx.rollbackAll(ConflictValidation, false)
			for _, i := range cx.used {
				tx := cx.txs[i]
				tx.rt.stats.userAborts.Add(tx.shard, 1)
			}
			cx.finishAttempt(false)
			return userErr
		}
		if cx.commitAll() {
			cx.finishAttempt(true)
			sr.crossCommits.Add(1)
			return nil
		}
		cx.finishAttempt(false)
	}
}

// execute runs one attempt of fn, converting conflict panics from any
// sub-transaction into a rolled-back retry indication.
func (cx *CrossTx) execute(fn func(cx *CrossTx) error) (userErr error, conflicted bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(conflictSignal); ok {
				cx.rollbackAll(sig.reason, true)
				conflicted = true
				return
			}
			// Not a conflict: roll back and release everything before the
			// panic escapes (the single-shard path's deferred release).
			cx.rollbackAll(ConflictValidation, false)
			cx.finishAttempt(false)
			if _, ok := r.(retrySignal); ok {
				panic("stm: Tx.Retry is not supported in cross-shard transactions")
			}
			panic(r)
		}
	}()
	return fn(cx), false
}

// rollbackAll rolls back every live sub-transaction. When countAbort is
// set, each participating shard's abort counter is bumped and the conflict
// cause recorded (mirroring the single-shard retry loop's accounting).
func (cx *CrossTx) rollbackAll(kind ConflictKind, countAbort bool) {
	for _, i := range cx.used {
		tx := cx.txs[i]
		if s := tx.state(); s == txActive || s == txDoomed {
			tx.rollback()
		}
		if countAbort {
			tx.rt.stats.aborts.Add(tx.shard, 1)
			tx.rt.stats.conflicts[kind].Add(tx.shard, 1)
		}
	}
}

// finishAttempt releases every sub-transaction back to its shard (release:
// leaves the switch gate and returns the Tx context to its pool). On
// committed attempts the per-shard commit statistics are recorded first.
func (cx *CrossTx) finishAttempt(committed bool) {
	for _, i := range cx.used {
		tx := cx.txs[i]
		rt := tx.rt
		if committed {
			rt.noteCommit(tx)
		}
		rt.release(tx)
		cx.txs[i] = nil
	}
	cx.used = cx.used[:0]
	cx.order = cx.order[:0]
	cx.holds = cx.holds[:0]
}

// commitAll is the combined commit: one point in time at which every
// sub-transaction's reads are valid and every write becomes visible with a
// single merged timestamp.
//
// Phase one pins every participating NOrec shard by acquiring its sequence
// lock in ascending shard order (deadlock-free: single-shard commits hold
// at most their own, and cross commits are serialized by crossMu) and
// validates each NOrec value log under it. TL2 sub-transactions already
// hold their write locks encounter-time; their read sets are validated
// exactly (no quiet-path shortcut — the per-shard clocks advance
// independently, so a quiet inference on one shard says nothing about the
// others).
//
// Phase two draws a write version from each written TL2 shard's clock,
// merges them to a single timestamp (max), raises every participating
// clock to it, flips each sub-transaction to committed, and writes back:
// TL2 locations carry the merged version, NOrec shards bump their sequence
// locks by two in reverse order. Any validation or doom failure releases
// the sequence locks at their pre-acquisition values and rolls back.
func (cx *CrossTx) commitAll() bool {
	// Deterministic shard order for lock acquisition.
	cx.order = append(cx.order[:0], cx.used...)
	sort.Ints(cx.order)
	failed := false
	var failKind ConflictKind
	// Phase 1a: doom check before taking any shared locks.
	for _, i := range cx.order {
		if cx.txs[i].state() == txDoomed {
			failed, failKind = true, ConflictDoomed
			break
		}
	}
	// Phase 1b: pin NOrec shards (ascending), validating value logs.
	if !failed {
		for _, i := range cx.order {
			tx := cx.txs[i]
			rt := tx.rt
			if rt.engine() != NOrec {
				continue
			}
			acquired := false
			for !acquired {
				s := rt.norec.waitEven()
				if s != tx.rv && !tx.revalidateNorecAt(s) {
					failed, failKind = true, ConflictValidation
					break
				}
				if rt.norec.seq.CompareAndSwap(s, s+1) {
					cx.holds = append(cx.holds, seqHold{rt: rt, s: s})
					tx.wv = s >> 1
					acquired = true
				}
			}
			if failed {
				break
			}
		}
	}
	// Phase 1c: validate every TL2 read set (read-only sub-transactions
	// included — their snapshots must hold at this combined commit point).
	if !failed {
		for _, i := range cx.order {
			tx := cx.txs[i]
			if tx.rt.engine() == NOrec {
				continue
			}
			if !tx.validateReads() {
				failed, failKind = true, ConflictValidation
				break
			}
		}
	}
	// Phase 2a: merged commit timestamp over written TL2 shards.
	var merged uint64
	if !failed {
		for _, i := range cx.order {
			tx := cx.txs[i]
			if tx.rt.engine() == NOrec || len(tx.writes) == 0 {
				continue
			}
			if wv := tx.rt.clock.tick(); wv > merged {
				merged = wv
			}
		}
		for _, i := range cx.order {
			tx := cx.txs[i]
			if tx.rt.engine() == NOrec || len(tx.writes) == 0 {
				continue
			}
			tx.rt.clock.raiseTo(merged)
			tx.wv = merged
		}
		// Phase 2b: commit point — flip every sub-transaction.
		for _, i := range cx.order {
			if !cx.txs[i].leaveActive(txCommitted) {
				failed, failKind = true, ConflictDoomed
				break
			}
		}
	}
	if failed {
		// Release pinned sequence locks at their pre-acquisition values (no
		// writer entered: readers saw the odd value and simply retried) and
		// roll back. Sub-transactions already flipped to committed published
		// nothing yet; rollback restores their locks like any abort.
		for h := len(cx.holds) - 1; h >= 0; h-- {
			hold := cx.holds[h]
			// The release must keep the seqlock protocol: the CAS acquired
			// it in this function's phase 1b; this store undoes it.
			hold.rt.norec.seq.Store(hold.s)
		}
		cx.holds = cx.holds[:0]
		for _, i := range cx.order {
			tx := cx.txs[i]
			if tx.state() == txCommitted {
				tx.setState(txActive) // restore so rollback paths agree
			}
			tx.rollback()
			tx.rt.stats.aborts.Add(tx.shard, 1)
			tx.rt.stats.conflicts[failKind].Add(tx.shard, 1)
		}
		return false
	}
	// Phase 2c: write-back. TL2 shards publish under the merged timestamp;
	// NOrec shards publish under their held sequence locks.
	for _, i := range cx.order {
		tx := cx.txs[i]
		norec := tx.rt.engine() == NOrec
		for w := range tx.writes {
			if norec {
				tx.writes[w].publishNorec()
			} else {
				tx.writes[w].publish(merged)
			}
		}
	}
	for h := len(cx.holds) - 1; h >= 0; h-- {
		hold := cx.holds[h]
		hold.rt.norec.seq.Store(hold.s + 2)
	}
	cx.holds = cx.holds[:0]
	return true
}
