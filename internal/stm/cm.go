package stm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// A ContentionManager arbitrates conflicts between a running transaction
// (the attacker, which found a location locked) and the lock owner, and
// paces retries after aborts. Implementations must be safe for concurrent
// use by many transactions.
type ContentionManager interface {
	// ShouldAbort decides the attacker's fate upon finding owner's lock:
	// true aborts the attacker (it will retry from scratch); false makes the
	// attacker wait and re-attempt the operation, possibly after the manager
	// doomed the owner.
	ShouldAbort(attacker, owner *Tx) bool
	// BeforeRetry is called before the attempt-th re-execution of an aborted
	// transaction and may block to space retries out.
	BeforeRetry(tx *Tx, attempt int)
	// Name identifies the policy in statistics and logs.
	Name() string
}

// birthOrdered marks the managers that compare birth timestamps. Under any
// other manager begin skips the draw from the runtime's shared tsc word.
type birthOrdered interface{ ordersByBirth() }

// ownerBlind marks the managers that abort the attacker on every conflict
// and so never read a lock's owner, its birth or its karma. A block begun
// under one takes its locks without publishing any of them (Tx.publishes);
// a manager that embeds one inherits the mark and must not read owners.
type ownerBlind interface{ ignoresOwner() }

// cmSlot is what Runtime.cmAtom points at: the installed manager, whether
// it orders by birth and whether it reads owners, decided once at
// installation so that begin pays one pointer load and no type assertion.
type cmSlot struct {
	cm         ContentionManager
	byBirth    bool
	readsOwner bool
}

// newCMSlot wraps cm for installation; nil means the default BackoffCM.
func newCMSlot(cm ContentionManager) *cmSlot {
	if cm == nil {
		cm = BackoffCM{}
	}
	_, byBirth := cm.(birthOrdered)
	_, blind := cm.(ownerBlind)
	return &cmSlot{cm: cm, byBirth: byBirth, readsOwner: !blind}
}

// SuicideCM aborts the attacker immediately on any conflict and retries
// without delay. It is the simplest livelock-prone baseline.
type SuicideCM struct{}

// ShouldAbort always sacrifices the attacker.
func (SuicideCM) ShouldAbort(_, _ *Tx) bool { return true }

// BeforeRetry yields once so the owner can finish.
func (SuicideCM) BeforeRetry(_ *Tx, _ int) { runtime.Gosched() }

// Name implements ContentionManager.
func (SuicideCM) Name() string { return "suicide" }

func (SuicideCM) ignoresOwner() {}

// BackoffCM aborts the attacker and paces retries with an adaptive
// spin → yield → sleep ladder, randomized from the transaction's private
// xorshift PRNG. It is the default manager: free of deadlock and,
// probabilistically, of livelock.
//
// The ladder replaces the earlier shared-rand time.Sleep ladder, whose two
// multicore costs the parallel harness made visible: every retry serialized
// on math/rand's global mutex (one more shared cache line on the abort
// path), and the earliest retries — where the owner is typically nanoseconds
// from done — paid a scheduler round trip or a timer sleep. Now the first
// retries busy-spin briefly (multicore only: with one schedulable context
// the owner cannot be running, so spinning is pure waste and the ladder
// starts at yield), the middle retries yield the processor, and only
// persistent conflicts escalate to randomized exponential sleeping, bounded
// by Base/Max as before. All jitter comes from Tx.nextRand, so a
// transaction's backoff sequence is deterministic and contention-free.
//
// The policy (like any ContentionManager) is selected via Config.CM;
// BackoffCM{} is the default when Config.CM is nil.
type BackoffCM struct {
	// Base is the sleep-phase first ceiling; defaults to backoffSleepBase.
	Base time.Duration
	// Max bounds the sleep ceiling; defaults to backoffSleepMax.
	Max time.Duration
}

// Backoff-ladder tuning. Spin counts are iterations of a no-op atomic load
// loop (~1ns each); the phase boundaries are attempt numbers.
const (
	// backoffSpinRetries is the number of initial retries served by busy
	// spinning when more than one processor is available.
	backoffSpinRetries = 2
	// backoffSpinCap bounds the randomized spin iteration count.
	backoffSpinCap = 256
	// backoffYieldRetries is the attempt number up to which retries are
	// served by scheduler yields; beyond it the ladder sleeps.
	backoffYieldRetries = 6
	// backoffYieldCap bounds the randomized yield count per retry.
	backoffYieldCap = 4
	// backoffSleepBase is the default first sleep-phase ceiling.
	backoffSleepBase = time.Microsecond
	// backoffSleepMax is the default bound on the sleep ceiling.
	backoffSleepMax = 100 * time.Microsecond
)

// backoffStep is one planned pacing action: spin iterations, scheduler
// yields, or a sleep. Exactly one field is non-zero.
type backoffStep struct {
	spins  int
	yields int
	sleep  time.Duration
}

// plan computes the pacing for the attempt-th retry from one PRNG draw r
// and the number of schedulable contexts. It is a pure function, which is
// what makes the ladder unit-testable: the same (attempt, r, procs) always
// yields the same step. It is total: an attempt below 1 (Runtime.Atomic
// never passes one, direct callers may) plans as the first retry.
func (b BackoffCM) plan(attempt int, r uint64, procs int) backoffStep {
	if attempt < 1 {
		attempt = 1
	}
	if procs > 1 && attempt <= backoffSpinRetries {
		// The conflicting owner is likely mid-commit on another core;
		// spinning a few hundred nanoseconds beats handing our context to
		// the scheduler and back.
		bound := backoffSpinCap << uint(attempt-1)
		return backoffStep{spins: 1 + int(r%uint64(bound))}
	}
	if attempt <= backoffYieldRetries {
		return backoffStep{yields: 1 + int(r%backoffYieldCap)}
	}
	base := b.Base
	if base <= 0 {
		base = backoffSleepBase
	}
	maxd := b.Max
	if maxd <= 0 {
		maxd = backoffSleepMax
	}
	exp := attempt - backoffYieldRetries
	if exp > 16 {
		exp = 16
	}
	ceil := base << uint(exp)
	if ceil > maxd {
		ceil = maxd
	}
	d := time.Duration(r % uint64(ceil+1))
	if d < backoffSleepBase {
		// Too short for the timer's resolution to be meaningful: yield.
		return backoffStep{yields: 1}
	}
	return backoffStep{sleep: d}
}

// spinSink is the load target of the backoff spin loop: an always-zero
// atomic the compiler cannot elide, touched by no writer, so spinning reads
// a shard-local cache line and generates no coherence traffic.
var spinSink atomic.Uint64

// backoffRand draws jitter for tx, falling back to a package-level
// splitmix64 sequence when the manager is used detached from a transaction
// (direct calls in tests or embedding managers).
var backoffFallbackRand atomic.Uint64

func backoffRand(tx *Tx) uint64 {
	if tx != nil {
		return tx.nextRand()
	}
	x := backoffFallbackRand.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return x
}

// ShouldAbort always sacrifices the attacker; progress comes from backoff.
func (BackoffCM) ShouldAbort(_, _ *Tx) bool { return true }

// spinProcs is the parallelism the spin-phase decision keys on: the lock
// owner can only be making progress while we spin if another *hardware*
// context is actually running it, so GOMAXPROCS is capped by the physical
// CPU count (oversubscribed GOMAXPROCS on a small host would otherwise burn
// the owner's own timeslice spinning).
func spinProcs() int {
	procs := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < procs {
		procs = n
	}
	return procs
}

// BeforeRetry applies the adaptive spin → yield → sleep ladder.
func (b BackoffCM) BeforeRetry(tx *Tx, attempt int) {
	step := b.plan(attempt, backoffRand(tx), spinProcs())
	switch {
	case step.spins > 0:
		for i := 0; i < step.spins; i++ {
			if spinSink.Load() != 0 {
				break
			}
		}
	case step.yields > 0:
		for i := 0; i < step.yields; i++ {
			runtime.Gosched()
		}
	default:
		time.Sleep(step.sleep)
	}
}

// Name implements ContentionManager.
func (BackoffCM) Name() string { return "backoff" }

func (BackoffCM) ignoresOwner() {}

// GreedyCM implements timestamp-based greedy contention management (Guerraoui
// et al., PODC'05), the policy SwissTM applies to long transactions: the
// transaction with the older birth timestamp wins. A younger attacker aborts
// itself; an older attacker dooms the owner and waits for the lock. Because
// timestamps are stable across retries, every transaction eventually becomes
// the oldest and finishes: the policy is starvation-free.
type GreedyCM struct{}

// ShouldAbort compares birth timestamps; older transactions win conflicts.
// The attacker is the caller's own block; the owner's birth is the copy it
// published with its first lock.
func (GreedyCM) ShouldAbort(attacker, owner *Tx) bool {
	if attacker.birth < owner.ts.Load() {
		// Attacker is older: doom the owner (no effect if it already
		// committed or aborted) and wait for the lock to be released.
		owner.leaveActive(txDoomed)
		return false
	}
	return true
}

func (GreedyCM) ordersByBirth() {}

// BeforeRetry yields once; ordering, not delay, provides progress.
func (GreedyCM) BeforeRetry(_ *Tx, _ int) { runtime.Gosched() }

// Name implements ContentionManager.
func (GreedyCM) Name() string { return "greedy" }

// TwoPhaseCM approximates SwissTM's two-phase contention management: short
// transactions (few writes, few retries) behave timidly (abort + backoff),
// while transactions that have invested work (attempt count at or beyond
// Threshold) escalate to greedy timestamp ordering.
type TwoPhaseCM struct {
	// Threshold is the attempt count at which a transaction turns greedy;
	// defaults to 2.
	Threshold int
	backoff   BackoffCM
	greedy    GreedyCM
}

// ShouldAbort is timid for young attempts and greedy for old ones.
func (c TwoPhaseCM) ShouldAbort(attacker, owner *Tx) bool {
	th := c.Threshold
	if th <= 0 {
		th = 2
	}
	if attacker.attempt >= th {
		return c.greedy.ShouldAbort(attacker, owner)
	}
	return c.backoff.ShouldAbort(attacker, owner)
}

func (TwoPhaseCM) ordersByBirth() {}

// BeforeRetry delegates to the phase-appropriate policy.
func (c TwoPhaseCM) BeforeRetry(tx *Tx, attempt int) {
	th := c.Threshold
	if th <= 0 {
		th = 2
	}
	if attempt >= th {
		c.greedy.BeforeRetry(tx, attempt)
		return
	}
	c.backoff.BeforeRetry(tx, attempt)
}

// Name implements ContentionManager.
func (TwoPhaseCM) Name() string { return "two-phase" }

// KarmaCM implements Scherer & Scott's Karma policy: a transaction's
// priority is the work it has invested (transactional operations performed,
// accumulated across retries). An attacker with at least the owner's karma
// dooms the owner; a poorer attacker aborts itself and retries, carrying its
// karma forward so it eventually out-prioritizes the owner.
type KarmaCM struct{}

// ShouldAbort compares invested work; the richer transaction wins.
func (KarmaCM) ShouldAbort(attacker, owner *Tx) bool {
	// The attacker is the caller's own transaction. It publishes its work
	// before reading the owner's (whose copy dates from its last lock
	// acquisition or its own last conflict): when two owners attack each
	// other, at least one of them then compares against the other's current
	// work, and every later poll of the waiting loop does, so the two sides
	// cannot both keep winning a comparison against a stale number.
	attacker.workPub.Store(attacker.work)
	if attacker.work >= owner.workPub.Load() {
		owner.leaveActive(txDoomed)
		return false
	}
	return true
}

// BeforeRetry yields once; karma accumulation provides progress.
func (KarmaCM) BeforeRetry(_ *Tx, _ int) { runtime.Gosched() }

// Name implements ContentionManager.
func (KarmaCM) Name() string { return "karma" }

// PolkaCM is Karma with Polite's randomized exponential backoff: conflicts
// are arbitrated by invested work, and retries are spaced out to let the
// winner finish. It is the best all-round policy of Scherer & Scott's study.
type PolkaCM struct {
	backoff BackoffCM
}

// ShouldAbort delegates to Karma's work comparison.
func (PolkaCM) ShouldAbort(attacker, owner *Tx) bool {
	return KarmaCM{}.ShouldAbort(attacker, owner)
}

// BeforeRetry applies randomized exponential backoff.
func (p PolkaCM) BeforeRetry(tx *Tx, attempt int) { p.backoff.BeforeRetry(tx, attempt) }

// Name implements ContentionManager.
func (PolkaCM) Name() string { return "polka" }
