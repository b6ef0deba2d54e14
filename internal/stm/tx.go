package stm

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Transaction states, the low stateBits of the status word; the bits above
// them count the atomic blocks the Tx object has completed (its generation).
// Transitions: active -> {doomed, committed, aborted}, any of those ->
// active again at the next attempt's enter, and any state -> poisoned when
// the block returns the Tx to the pool (only a publishing TL2 writer,
// Tx.publishes, and a CrossTx sub-transaction pass through committed: no
// doomer can find any other block, which holds nothing or publishes no
// owner, so its commit goes straight from active).
// enter parks a Tx that meets a closed engine-switch gate, holding nothing;
// a switch drains once every Tx is parked or poisoned (adaptive.go). A
// contention manager dooms a competitor by CASing its word from active to
// doomed within the generation it loaded; the victim notices at its next
// transactional operation or at commit and restarts. The poisoned state
// turns use of a leaked handle (the pattern rubic-lint's stmescape flags)
// into an immediate panic instead of silent corruption of a recycled
// transaction.
const (
	txActive uint64 = iota
	txDoomed
	txCommitted
	txAborted
	txPoisoned
	txParked

	stateBits = 3
	stateMask = 1<<stateBits - 1
)

// conflictSignal is the sentinel panic payload used to unwind a doomed or
// conflicting transaction back to Runtime.Atomic, which rolls back and
// retries. It never escapes this package.
type conflictSignal struct {
	reason ConflictKind
}

// ConflictKind classifies why a transaction attempt failed, for statistics.
type ConflictKind uint8

// Conflict classifications reported in Stats.
const (
	ConflictLockedRead  ConflictKind = iota // read found location locked by another tx
	ConflictLockedWrite                     // write found location locked by another tx
	ConflictStaleRead                       // version newer than read version, extension failed
	ConflictValidation                      // commit-time read-set validation failed
	ConflictDoomed                          // doomed by a competitor's contention manager
	conflictKinds
)

func (k ConflictKind) String() string {
	switch k {
	case ConflictLockedRead:
		return "locked-read"
	case ConflictLockedWrite:
		return "locked-write"
	case ConflictStaleRead:
		return "stale-read"
	case ConflictValidation:
		return "validation"
	case ConflictDoomed:
		return "doomed"
	}
	return "unknown"
}

type readEntry struct {
	base *varBase
	meta uint64 // unlocked meta word observed at read time
}

// writeEntry buffers one write: the value in engine form and the kind that
// says which slot of base commit write-back stores it to. A later write to
// the same location in the same attempt replaces val.
type writeEntry struct {
	base     *varBase
	prevMeta uint64 // meta word before our acquisition, restored on abort
	val      raw
	k        kind
}

// publish is the TL2 write-back of one entry: store the value, then release
// the write lock at commit version wv. Only a publishing block (Tx.publishes)
// has an owner to clear.
//
//rubic:noalloc
func (w *writeEntry) publish(wv uint64) {
	w.base.store(w.val, w.k)
	w.base.disown()
	w.base.meta.Store(wv << 1)
}

// Tx is one transaction attempt context. A Tx is created by Runtime.Atomic
// and reused across retries of the same atomic block; it must not be
// retained or shared outside the atomic function. Completed Txs are
// recycled through the Runtime's pool (steady-state atomic blocks allocate
// nothing), which is why a leaked handle is poisoned rather than merely
// stale: touching it after Atomic returns panics with generation context.
//
// Fields read by competing transactions through a varBase owner pointer
// (status, ts, workPub) are atomic: a competitor may hold a stale owner
// reference to a Tx that has since been recycled for an unrelated block.
// The worst a stale doomer can then do is doom an innocent transaction,
// which costs one spurious retry and never breaks consistency.
type Tx struct {
	rt     *Runtime
	status atomic.Uint64 // generation<<stateBits | state

	rv uint64 // read version: snapshot of the global clock

	// birth is the block's timestamp for the managers that order by age
	// (GreedyCM, TwoPhaseCM), stable across retries. begin draws it only
	// under such a manager; otherwise it stays 0 unless nextRand needs a
	// seed. ts is the copy competitors read, published at the block's first
	// write-lock acquisition just before the owner pointer, like workPub. A
	// block that began under another manager keeps birth 0 after a swap to
	// GreedyCM, which ranks it older than every block born after the swap.
	birth uint64
	ts    atomic.Uint64

	// work counts transactional operations performed since the atomic block
	// started, accumulated across retries (it is the "karma" of Karma/Polka
	// contention management). Only the running goroutine touches it;
	// competitors read workPub, the copy a publishing block stores at each
	// write-lock acquisition just before the owner pointer that leads them
	// here (and KarmaCM at each conflict) — a transaction that holds no lock
	// is nobody's owner, so an uncontended block never pays for publishing.
	work    int64
	workPub atomic.Int64

	// shard is the statistics shard this Tx feeds, assigned round-robin at
	// pool construction. Pools are per-P, so a shard is effectively per-P
	// too and commit accounting stays off shared cache lines.
	shard int

	reads  []readEntry
	vreads []valueRead // NOrec value log
	writes []writeEntry

	// usedReads/usedVreads/usedWrites are the longest each set grew in any
	// attempt of the current block: the prefix release must clear. Everything
	// beyond it is already zero, so a pooled Tx that once hosted a huge
	// transaction does not pay for its capacity on every small one.
	usedReads, usedVreads, usedWrites int

	// wv is the timestamp the block's writer commit drew (the TL2 write
	// version, or the NOrec sequence number): the runtime's count of writer
	// commits, by which noteCommit samples them.
	wv uint64

	// wsig is a 64-bit signature (1-bit Bloom filter) of the bases in the
	// write set. Read-after-write lookups test it first: a zero bit proves
	// the base was never written, so the common miss (reading a location the
	// transaction has not written) costs one AND instead of a map probe or
	// scan. False positives only cost falling through to the real lookup.
	wsig uint64

	// windex indexes writes by base, but only once the write set outgrows
	// windexLinearMax — below that a linear scan of the (cache-resident)
	// writes slice beats map hashing, and small transactions never pay map
	// insert/clear costs at all. Retained across retries and pooled reuse.
	windex   map[*varBase]int
	readOnly bool

	// publishes is set by begin when the installed manager reads owners
	// (every manager but BackoffCM and SuicideCM): only then do the block's
	// lock acquisitions publish ts, workPub and the owner pointer, and its
	// commit take the status CAS a doomer races. A blind block (publishes
	// false) is nobody's owner; ownerless says why mixing the two across a
	// manager swap stays live.
	publishes bool

	// prng is the per-Tx xorshift64 state behind nextRand, seeded lazily
	// from birth. Contention-management jitter drawn from it
	// is deterministic per transaction and touches no shared state (the
	// global math/rand source serializes every caller on one mutex).
	prng uint64

	attempt int

	// Durability hook state (durable.go): the sink and CSN drawn by
	// beginDurable inside the commit critical section, consumed by
	// publishDurable/waitDurable afterwards, and the reusable durable-op
	// buffer (retained like the read/write sets).
	sink   CommitSink
	csn    uint64
	durOps []DurableOp
}

// windexLinearMax is the write-set size up to which read-after-write lookups
// linearly scan the writes slice instead of consulting the windex map. At
// these sizes the scan is a handful of pointer compares in one or two cache
// lines, while the map costs a hash plus bucket probe per lookup and an
// insert per write; the crossover measured on the hot-path benchmarks sits
// well above typical transaction sizes.
const windexLinearMax = 16

// sigbit hashes a location's identity to one of 64 signature bits. The
// address is stable for the life of the varBase (Go's GC does not move
// heap objects today; if it ever does, a stale signature only yields false
// positives, which are harmless by construction).
func sigbit(b *varBase) uint64 {
	h := uint64(uintptr(unsafe.Pointer(b))) * 0x9E3779B97F4A7C15
	return 1 << (h >> 58)
}

// findWrite returns the write-set index holding base, or -1. It is the
// read-after-write and write-after-write lookup on both engines' hot paths:
// empty write set and signature misses return without touching the write
// set at all.
//
//rubic:noalloc
func (tx *Tx) findWrite(b *varBase) int {
	n := len(tx.writes)
	if n == 0 || tx.wsig&sigbit(b) == 0 {
		return -1
	}
	if n > windexLinearMax {
		if i, ok := tx.windex[b]; ok {
			return i
		}
		return -1
	}
	// Scan newest-first: redundant accesses cluster on recent writes.
	for i := n - 1; i >= 0; i-- {
		if tx.writes[i].base == b {
			return i
		}
	}
	return -1
}

// nextRand advances the per-Tx xorshift64 PRNG. The state is seeded from
// the transaction's birth timestamp on first use — drawn then if the block
// has none — so the jitter sequence is deterministic per transaction and
// distinct between concurrent ones.
//
//rubic:noalloc
func (tx *Tx) nextRand() uint64 {
	x := tx.prng
	if x == 0 {
		if tx.birth == 0 {
			tx.birth = tx.rt.tsc.Add(1)
		}
		x = tx.birth*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909
		if x == 0 {
			x = 1
		}
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	tx.prng = x
	return x
}

// Attempt reports the zero-based retry count of the current execution of the
// atomic block. Workload code can use it to, e.g., shrink its operation
// after repeated conflicts.
func (tx *Tx) Attempt() int { return tx.attempt }

// ReadOnly reports whether the transaction was started with AtomicRO.
func (tx *Tx) ReadOnly() bool { return tx.readOnly }

// reset starts an attempt's snapshot and sets; the attempt's enter has
// already made the status active.
func (tx *Tx) reset() {
	if tx.rt.engine() == NOrec {
		tx.rv = tx.rt.norec.waitEven()
	} else {
		tx.rv = tx.rt.clock.now()
	}
	tx.noteUsed()
	tx.reads = tx.reads[:0]
	tx.vreads = tx.vreads[:0]
	tx.writes = tx.writes[:0]
	tx.wsig = 0
	if len(tx.windex) > 0 {
		clear(tx.windex) // keep the allocation: recycled across retries and pooled reuse
	}
}

// noteUsed folds the finished attempt's set lengths into the block's
// high-water marks, before reset truncates the sets or release clears them.
//
//rubic:noalloc
func (tx *Tx) noteUsed() {
	tx.usedReads = max(tx.usedReads, len(tx.reads))
	tx.usedVreads = max(tx.usedVreads, len(tx.vreads))
	tx.usedWrites = max(tx.usedWrites, len(tx.writes))
}

// conflict unwinds the attempt with the sentinel panic.
func (tx *Tx) conflict(kind ConflictKind) {
	panic(conflictSignal{reason: kind})
}

// state returns the low bits of the status word.
//
//rubic:noalloc
func (tx *Tx) state() uint64 { return tx.status.Load() & stateMask }

// generation returns the number of atomic blocks the Tx object completed.
func (tx *Tx) generation() uint64 { return tx.status.Load() >> stateBits }

// setState stores state s in the current generation. Only the goroutine
// running the block calls it, to end or restart an attempt, so a doom CASed
// in between may be overwritten: the attempt it doomed is over either way.
//
//rubic:noalloc
func (tx *Tx) setState(s uint64) { tx.status.Store(tx.status.Load()&^stateMask | s) }

// leaveActive moves an active word to state s within the generation it
// loaded. It fails if the word is not active — already doomed, committed or
// aborted, or, for a stale owner pointer, onto another block. Commit and
// dooming competitors race through it.
//
//rubic:noalloc
func (tx *Tx) leaveActive(s uint64) bool {
	w := tx.status.Load()
	return w&stateMask == txActive && tx.status.CompareAndSwap(w, w|s)
}

// poisonPanic reports use of a handle that outlived its atomic block.
func (tx *Tx) poisonPanic() {
	panic(fmt.Sprintf("stm: transaction handle used after its atomic block returned "+
		"(object generation %d): the handle leaked from Atomic/AtomicRO — "+
		"see rubic-lint's stmescape analyzer", tx.generation()))
}

// checkAlive aborts the attempt if a competitor doomed us, and panics if
// this handle leaked out of its atomic block and was poisoned on release.
//
//rubic:noalloc
func (tx *Tx) checkAlive() {
	switch tx.state() {
	case txDoomed:
		tx.conflict(ConflictDoomed)
	case txPoisoned:
		tx.poisonPanic()
	}
}

// read dispatches to the runtime's engine: TL2's invisible-reader protocol
// with timestamp extension, or NOrec's value-validated sampling.
//
//rubic:noalloc
func (tx *Tx) read(b *varBase) raw {
	if tx.rt.engine() == NOrec {
		return tx.readNorec(b)
	}
	tx.checkAlive()
	tx.work++
	if i := tx.findWrite(b); i >= 0 {
		return tx.writes[i].val
	}
	for spins := 0; ; spins++ {
		m1 := b.meta.Load()
		if m1&lockedBit != 0 {
			owner := b.owner.Load()
			if owner == nil || owner == tx {
				// No owner published, or our own lock racing with the windex
				// check (cannot happen for a well-formed Tx, but harmless).
				tx.ownerless(ConflictLockedRead)
				continue
			}
			if tx.rt.curCM().ShouldAbort(tx, owner) {
				tx.conflict(ConflictLockedRead)
			}
			tx.checkAlive() // a waiter can be doomed too: waiting on must not outlive it
			backoffSpin(spins)
			continue
		}
		v := b.load()
		m2 := b.meta.Load()
		if m1 != m2 {
			continue
		}
		if m1>>1 > tx.rv {
			// A read-only transaction keeps no read set, so its snapshot
			// cannot be revalidated: it must restart with a fresh read
			// version instead of extending.
			if tx.readOnly || !tx.extend() {
				tx.conflict(ConflictStaleRead)
			}
			// extend revalidated the earlier reads, not this one: a commit
			// to b between the sample above and extend's clock read would
			// leave a stale value whose version the raised rv now covers,
			// and a later quiet commit skips validation. Re-sample.
			if b.meta.Load() != m1 {
				continue
			}
		}
		if !tx.readOnly {
			//lint:ignore rubic/noalloc read-set capacity is retained across retries and pooled reuse; growth amortizes to zero
			tx.reads = append(tx.reads, readEntry{base: b, meta: m1})
		}
		return v
	}
}

// write dispatches to the engine: TL2 acquires the location's write lock
// eagerly and buffers the value; NOrec only buffers.
//
//rubic:noalloc
func (tx *Tx) write(b *varBase, v raw, k kind) {
	if tx.rt.engine() == NOrec {
		tx.writeNorec(b, v, k)
		return
	}
	tx.checkAlive()
	tx.work++
	if tx.readOnly {
		panic("stm: write inside a read-only transaction")
	}
	if i := tx.findWrite(b); i >= 0 {
		tx.writes[i].val = v
		return
	}
	for spins := 0; ; spins++ {
		m := b.meta.Load()
		if m&lockedBit != 0 {
			owner := b.owner.Load()
			if owner == nil {
				tx.ownerless(ConflictLockedWrite)
				continue
			}
			if owner == tx {
				// Locked by us but absent from windex: impossible for a
				// well-formed Tx; treat as programming error.
				panic("stm: lock held without write-set entry")
			}
			if tx.rt.curCM().ShouldAbort(tx, owner) {
				tx.conflict(ConflictLockedWrite)
			}
			tx.checkAlive()
			backoffSpin(spins)
			continue
		}
		if m>>1 > tx.rv {
			if !tx.extend() {
				tx.conflict(ConflictStaleRead)
			}
		}
		if b.meta.CompareAndSwap(m, m|lockedBit) {
			if tx.publishes {
				// Publish the birth and the karma before the owner pointer:
				// whoever finds tx through b.owner sees this block's birth
				// and at least the work invested up to here. ts changes once
				// per block.
				if tx.ts.Load() != tx.birth {
					tx.ts.Store(tx.birth)
				}
				tx.workPub.Store(tx.work)
				b.owner.Store(tx)
			}
			tx.appendWrite(writeEntry{base: b, prevMeta: m, val: v, k: k})
			return
		}
	}
}

// ownerless is an attacker's move on a location locked with no owner
// published. A blind attacker (one begun under BackoffCM or SuicideCM)
// aborts, which is what its manager decides for every lock anyway. A
// publishing attacker waits, checking its own status on every poll: the
// holder is a publishing block between its CAS and its owner store (or its
// owner clear and its release), or a blind block, which holds its locks
// ownerless for its whole attempt.
//
// Waiting stays live across a manager swap, which can leave blocks of both
// kinds holding locks. A block waits on a holder only if it is publishing
// and the holder blind (here), or if its manager doomed the published
// holder (ShouldAbort returns false only after leaveActive; a doom that
// fails finds the holder committed or aborting, and it releases). So in a
// cycle of blocks each waiting for a lock the next holds:
//   - blind waits on blind: impossible, both abort on sight as under one
//     blind manager;
//   - blind waits on publishing: the publishing holder was doomed;
//   - publishing waits on blind: the blind holder itself either aborts or
//     waits on a publishing block it doomed (the previous case);
//   - publishing waits on publishing: the holder was doomed, as under one
//     manager.
//
// Every cycle therefore holds a doomed block, and a doomed block that waits
// sees its status on its next poll, here or in read/write, and unwinds,
// releasing its locks. A stale doom of a blind block is harmless: it
// aborts, or it has passed the doom check in commit and releases anyway.
//
//rubic:noalloc
func (tx *Tx) ownerless(kind ConflictKind) {
	if !tx.publishes {
		tx.conflict(kind)
	}
	tx.checkAlive()
	runtime.Gosched()
}

// appendWrite records a new write-set entry, folds the base into the
// signature filter, and — only once the set outgrows the linear-scan range —
// indexes it in windex. The map is created lazily the first time a write set
// crosses windexLinearMax (small transactions never allocate or populate
// it) and retained across retries and pooled reuse; the backfill loop runs
// once per crossing, not per write.
func (tx *Tx) appendWrite(e writeEntry) {
	tx.writes = append(tx.writes, e)
	tx.wsig |= sigbit(e.base)
	n := len(tx.writes)
	switch {
	case n == windexLinearMax+1:
		if tx.windex == nil {
			tx.windex = make(map[*varBase]int, 4*windexLinearMax)
		}
		for i := range tx.writes {
			tx.windex[tx.writes[i].base] = i
		}
	case n > windexLinearMax+1:
		tx.windex[e.base] = n - 1
	}
}

// extend attempts to advance the read version after observing a location
// newer than rv: it revalidates the entire read set against the current
// clock (SwissTM's lazy snapshot extension). It returns false when some read
// location changed, in which case the transaction must abort.
func (tx *Tx) extend() bool {
	newRv := tx.rt.clock.now()
	if !tx.validateReads() {
		return false
	}
	tx.rv = newRv
	tx.rt.stats.extensions.Add(tx.shard, 1)
	return true
}

// validateReads checks that every location in the read set still carries the
// version observed at read time and is not locked by a competitor. A lock is
// ours iff its location is in the write set, which is exactly the set of
// locks the attempt holds (a blind block publishes no owner to compare).
//
//rubic:noalloc
func (tx *Tx) validateReads() bool {
	for i := range tx.reads {
		e := &tx.reads[i]
		cur := e.base.meta.Load()
		if cur&lockedBit != 0 {
			if tx.findWrite(e.base) < 0 {
				return false
			}
			cur &^= lockedBit
		}
		if cur != e.meta {
			return false
		}
	}
	return true
}

// commit attempts to make the transaction's writes visible. It returns false
// (after rolling back) when validation fails or the transaction was doomed.
func (tx *Tx) commit() bool {
	if tx.rt.engine() == NOrec {
		return tx.commitNorec()
	}
	if tx.state() == txDoomed {
		tx.rollback()
		tx.rt.stats.conflicts[ConflictDoomed].Add(tx.shard, 1)
		return false
	}
	if len(tx.writes) == 0 {
		// Read-only commit: in-flight validation already guaranteed a
		// consistent snapshot at version rv. Nothing is held, so there is no
		// doomer to race and the status stays active until release poisons it.
		return true
	}
	// quiet means no competitor committed between our snapshot and the
	// acquisition of wv, so nothing we read can have changed and read-set
	// validation is redundant.
	wv, quiet := tx.rt.clock.tickLazy(tx.rv)
	tx.wv = wv
	if !quiet && !tx.validateReads() {
		tx.rollback()
		tx.rt.stats.conflicts[ConflictValidation].Add(tx.shard, 1)
		return false
	}
	// Win the race against contention managers trying to doom us: once
	// committed, write-back proceeds and doomers must wait for the locks. A
	// blind block published no owner, so only a stale pointer can doom it and
	// either outcome of that race is harmless: the state load above is its
	// commit point.
	if tx.publishes && !tx.leaveActive(txCommitted) {
		tx.rollback()
		tx.rt.stats.conflicts[ConflictDoomed].Add(tx.shard, 1)
		return false
	}
	// The CSN is drawn here — after the commit point, while every write lock
	// is still held — so commit sequence numbers are monotone along every
	// read-from and overwrite dependency (durable.go).
	tx.beginDurable()
	for i := range tx.writes {
		tx.writes[i].publish(wv)
	}
	tx.publishDurable()
	return true
}

// rollback releases every write lock, restoring the pre-acquisition version,
// and marks the attempt aborted. Values were never written back, so no data
// restoration is needed. (NOrec holds nothing.)
func (tx *Tx) rollback() {
	if tx.rt.engine() == NOrec {
		tx.rollbackNorec()
		return
	}
	for i := range tx.writes {
		w := &tx.writes[i]
		w.base.disown()
		w.base.meta.Store(w.prevMeta)
	}
	tx.setState(txAborted)
}

// backoffSpin yields the processor with a cost growing in the number of
// failed spins, bounded to keep worst-case latency low on few-core hosts.
func backoffSpin(spins int) {
	if spins > 64 {
		spins = 64
	}
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
	runtime.Gosched()
}
