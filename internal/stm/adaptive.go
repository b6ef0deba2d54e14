package stm

import "math/bits"

// This file implements the runtime's hot-swap surface (DESIGN.md §12): the
// contention manager swaps immediately, the engine swaps through a
// quiesce-and-switch barrier. The barrier is a one-word gate plus each Tx's
// own status word, which every attempt writes anyway:
//
//   - every attempt starts in enter, which stores the Tx active and then
//     loads the gate; a block's exit is release's poison store;
//   - a switcher closes the gate, waits until every Tx the runtime has
//     created is parked or poisoned, swaps the engine word, and reopens;
//   - blocked or retrying attempts re-enter at safe points (the retry-loop
//     top and inside Tx.Retry's wait loop) and park there, so a drain never
//     deadlocks on a transaction that is merely waiting.
//
// Both sides store before they load, through Go's sequentially consistent
// atomics, so as in Dekker's protocol at least one sees the other: an
// attempt that missed the closed gate is seen active by the drain. The
// gate therefore costs an attempt one load beyond the status store it
// always made, and nothing here allocates.

// sigAggWindow is the decay window of the rolling write-signature
// aggregate: the sampled writer commit whose timestamp is a multiple of
// sigAggWindow*sigSampleEvery replaces the aggregate with its own signature
// instead of ORing into it, so the estimate tracks the recent epoch instead
// of saturating over the run. Keying the decay on the timestamp, like the
// sample, costs no shared counter.
const sigAggWindow = 64

// sigSampleEvery is the sampling period of the signature aggregate: the
// writer commits whose timestamp (Tx.wv) is a multiple of it feed it. The
// conflict degree is a ratio of two sums over the same commits, so a
// subsample estimates it as well as the full stream does, and only the
// adaptive policy reads it — seven writers in eight skip a shared-word
// atomic and two counter adds. The set-size sums stay exact. Sampling by
// timestamp keeps the profile a pure function of the commit sequence: a
// counter on the pooled Tx object would tie it to which object the pool
// hands out (sync.Pool drops objects at random under the race detector).
const sigSampleEvery = 8

// enter starts an attempt of tx: it stores the status active, then parks —
// holding nothing — for as long as an engine switch has the gate closed.
//
//rubic:noalloc
func (rt *Runtime) enter(tx *Tx) {
	gen := tx.status.Load() &^ stateMask
	for spins := 0; ; {
		tx.status.Store(gen | txActive)
		if rt.swGate.Load() == 0 {
			return
		}
		tx.status.Store(gen | txParked)
		for ; rt.swGate.Load() != 0; spins++ {
			backoffSpin(spins)
		}
	}
}

// quiescent reports whether tx is outside every attempt: parked at the
// gate or back in the pool.
func (tx *Tx) quiescent() bool {
	s := tx.state()
	return s == txParked || s == txPoisoned
}

// SetContentionManager installs cm runtime-wide, effective for every
// subsequent conflict decision; nil restores the default BackoffCM. No
// drain is needed: contention managers decide only who waits or aborts
// (liveness), never what a commit publishes (safety) — under encounter-time
// locking every lock is released by its owner on commit or rollback
// regardless of which manager doomed whom, so attempts racing the swap see
// either manager and both answers are correct. A block keeps the birth its
// begin drew, or did not draw (Tx.birth), and whether it publishes owners
// (Tx.ownerless: blocks of both kinds stay live together).
func (rt *Runtime) SetContentionManager(cm ContentionManager) {
	rt.cmAtom.Store(newCMSlot(cm))
	rt.cmSwitches.Add(1)
}

// SwitchEngine performs the stop-the-world engine handoff: close the gate,
// drain every attempt, re-seed the version clock, swap, reopen.
// It is safe at any time from any goroutine and serializes with concurrent
// switchers; switching to the current engine still drains (useful as a
// barrier in tests). Pooled Tx contexts are untouched — their read/write
// sets are per-attempt state that reset() clears — so the zero-alloc
// steady state survives the swap.
//
// The clock re-seed closes the NOrec->TL2 livelock: NOrec commits bump each
// written location's version (meta.Add in commitNorec) without advancing
// the TL2 clock, so after a NOrec era location versions may exceed the
// clock and every TL2 read would fail extension forever. Each NOrec era
// performed (seq-mark)/2 writer commits — each raised its locations'
// versions by one — so advancing the clock by that delta restores the TL2
// invariant (clock >= every unlocked location version).
func (rt *Runtime) SwitchEngine(to Algorithm) {
	rt.swMu.Lock()
	defer rt.swMu.Unlock()
	from := rt.engine()
	rt.swGate.Store(1)
	// A Tx registered after this load enters after the gate closed, so it
	// parks; the walk need not see it.
	rt.txsMu.Lock()
	txs := rt.txs
	rt.txsMu.Unlock()
	for _, p := range txs {
		if tx := p.Value(); tx != nil {
			for spins := 0; !tx.quiescent(); spins++ {
				backoffSpin(spins)
			}
		}
	}
	if from == NOrec {
		seq := rt.norec.waitEven() // even once drained; waitEven keeps the seqlock protocol visible
		rt.clock.advance((seq - rt.norecMark) / 2)
		rt.norecMark = seq
	}
	rt.algoAtom.Store(uint32(to))
	rt.engineSwitches.Add(1)
	rt.swGate.Store(0)
}

// SwitchCounts reports completed engine and contention-manager swaps, for
// telemetry and tests.
func (rt *Runtime) SwitchCounts() (engine, cm uint64) {
	return rt.engineSwitches.Load(), rt.cmSwitches.Load()
}

// noteCommit counts a committed attempt — once, as a read-only or a writer
// commit (Stats.Commits is their sum) — and folds it into the
// conflict-profile counters: read/write-set sizes exactly, and for a sample
// of writers the overlap of the write signature against the rolling
// aggregate of recent writers' signatures (the wsig-collision
// conflict-degree estimate). Zero-size adds are skipped, so a read-only
// block that kept no read set pays one counter add.
//
//rubic:noalloc
func (rt *Runtime) noteCommit(tx *Tx) {
	if n := uint64(len(tx.reads)) + uint64(len(tx.vreads)); n > 0 {
		rt.stats.readSetSum.Add(tx.shard, n)
	}
	if len(tx.writes) == 0 {
		rt.stats.readOnlyCommits.Add(tx.shard, 1)
		return
	}
	rt.stats.writerCommits.Add(tx.shard, 1)
	rt.stats.writeSetSum.Add(tx.shard, uint64(len(tx.writes)))
	if tx.wv%sigSampleEvery != 0 {
		return
	}
	sig := tx.wsig
	agg := rt.sigAgg.Load()
	rt.stats.sigBits.Add(tx.shard, uint64(bits.OnesCount64(sig)))
	rt.stats.sigOverlap.Add(tx.shard, uint64(bits.OnesCount64(sig&agg)))
	if (tx.wv/sigSampleEvery)%sigAggWindow == 0 {
		rt.sigAgg.Store(sig)
	} else {
		// Single-attempt CAS: a lost race drops one statistical sample from
		// a rolling estimate, which is cheaper than looping on a hot word.
		rt.sigAgg.CompareAndSwap(agg, agg|sig)
	}
}
