package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Unit tests for the quiesce-and-switch protocol: drain semantics, the
// NOrec->TL2 clock re-seed, liveness against parked Retry waiters, and the
// undrained contention-manager swap.

// TestSwitchEnginePreservesData pins the basic contract: values written
// under one engine read back identically under every other, in all four
// transition directions.
func TestSwitchEnginePreservesData(t *testing.T) {
	for _, dir := range switchDirections {
		from, to := dir[0], dir[1]
		rt := New(Config{Algorithm: from})
		v := NewVar(0)
		if err := rt.Atomic(func(tx *Tx) error { v.Write(tx, 41); return nil }); err != nil {
			t.Fatal(err)
		}
		rt.SwitchEngine(to)
		if got := rt.Algorithm(); got != to {
			t.Fatalf("%s->%s: engine %s after switch", from.String(), to.String(), got.String())
		}
		var got int
		err := rt.Atomic(func(tx *Tx) error {
			got = v.Read(tx)
			v.Write(tx, got+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 41 || v.Peek() != 42 {
			t.Fatalf("%s->%s: read %d, final %d; want 41, 42", from.String(), to.String(), got, v.Peek())
		}
	}
}

// TestSwitchEngineReseedsClock pins the NOrec->TL2 handoff arithmetic: every
// writer commit of a NOrec era bumps the global seqlock by 2 without
// touching the TL2 clock, so the handoff must advance the clock by the era's
// writer-commit count — otherwise versions published during the era sit in
// the future of every post-switch snapshot and TL2 livelocks on validation.
func TestSwitchEngineReseedsClock(t *testing.T) {
	rt := New(Config{Algorithm: NOrec})
	v := NewVar(0)
	const writes = 5
	for i := 0; i < writes; i++ {
		if err := rt.Atomic(func(tx *Tx) error { v.Write(tx, i+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	before := rt.clock.now()
	rt.SwitchEngine(TL2)
	if got := rt.clock.now() - before; got != writes {
		t.Fatalf("clock advanced by %d across the handoff, want %d", got, writes)
	}

	// A second NOrec era must re-seed only its own commits: the mark moves
	// with the handoff, so prior eras are not double-counted.
	rt.SwitchEngine(NOrec)
	const more = 3
	for i := 0; i < more; i++ {
		if err := rt.Atomic(func(tx *Tx) error { v.Write(tx, 100+i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	before = rt.clock.now()
	rt.SwitchEngine(TL2)
	if got := rt.clock.now() - before; got != more {
		t.Fatalf("second era advanced the clock by %d, want %d", got, more)
	}

	// And the re-seeded clock actually works: TL2 reads and writes settle
	// without tripping over era-published versions.
	var got int
	if err := rt.AtomicRO(func(tx *Tx) error { got = v.Read(tx); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 102 {
		t.Fatalf("post-handoff read %d, want 102", got)
	}
}

// TestSwitchEngineDrainsInflight proves the stop-the-world barrier: a
// transaction blocked inside its closure holds the gate, and SwitchEngine
// must not complete until it commits.
func TestSwitchEngineDrainsInflight(t *testing.T) {
	rt := New(Config{Algorithm: TL2})
	v := NewVar(0)
	inTx := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	txDone := make(chan error, 1)
	go func() {
		txDone <- rt.Atomic(func(tx *Tx) error {
			v.Write(tx, 7)
			once.Do(func() { close(inTx) })
			<-release
			return nil
		})
	}()
	<-inTx
	swDone := make(chan struct{})
	go func() {
		rt.SwitchEngine(NOrec)
		close(swDone)
	}()
	select {
	case <-swDone:
		t.Fatal("SwitchEngine completed with a transaction still in flight")
	case <-time.After(20 * time.Millisecond):
		// Still draining — the barrier holds.
	}
	close(release)
	if err := <-txDone; err != nil {
		t.Fatal(err)
	}
	select {
	case <-swDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SwitchEngine never completed after the in-flight transaction drained")
	}
	if v.Peek() != 7 {
		t.Fatalf("drained transaction's write lost: %d", v.Peek())
	}
}

// TestSwitchEngineUnblocksRetry proves drain liveness against the blocking
// primitive: a goroutine parked in Tx.Retry holds a gate slot, and the
// handoff must treat it as a spurious wakeup (release, drain, re-park)
// rather than deadlocking the drain against a waiter only a gated
// transaction could wake.
func TestSwitchEngineUnblocksRetry(t *testing.T) {
	rt := New(Config{Algorithm: TL2})
	flag := NewVar(0)
	var once sync.Once
	parked := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		waiter <- rt.Atomic(func(tx *Tx) error {
			v := flag.Read(tx)
			once.Do(func() { close(parked) })
			if v == 0 {
				tx.Retry()
			}
			return nil
		})
	}()
	<-parked
	time.Sleep(2 * time.Millisecond) // let the waiter reach waitForChange
	swDone := make(chan struct{})
	go func() {
		rt.SwitchEngine(NOrec)
		close(swDone)
	}()
	select {
	case <-swDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SwitchEngine deadlocked against a parked Retry waiter")
	}
	if err := rt.Atomic(func(tx *Tx) error { flag.Write(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiter:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry waiter never woke after the switch")
	}
}

// TestSetContentionManager pins the undrained CM swap: effective
// immediately, nil restores the default, and swaps are counted separately
// from engine handoffs.
func TestSetContentionManager(t *testing.T) {
	rt := New(Config{Algorithm: TL2})
	if got := rt.ContentionManagerName(); got != (BackoffCM{}).Name() {
		t.Fatalf("default CM %q", got)
	}
	rt.SetContentionManager(GreedyCM{})
	if got := rt.ContentionManagerName(); got != (GreedyCM{}).Name() {
		t.Fatalf("CM %q after swap, want greedy", got)
	}
	rt.SetContentionManager(nil)
	if got := rt.ContentionManagerName(); got != (BackoffCM{}).Name() {
		t.Fatalf("CM %q after nil swap, want the default", got)
	}
	eng, cms := rt.SwitchCounts()
	if eng != 0 || cms != 2 {
		t.Fatalf("switch counts engine=%d cm=%d, want 0/2", eng, cms)
	}
	// The swapped manager must keep committing transactions.
	v := NewVar(0)
	if err := rt.Atomic(func(tx *Tx) error { v.Write(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
}

// holdBlock starts an atomic block that stays inside fn until release is
// closed, and returns once it is there; the block's error arrives on done.
func holdBlock(rt *Runtime, readOnly bool, v *Var[int], release <-chan struct{}) (done <-chan error) {
	in := make(chan struct{})
	errc := make(chan error, 1)
	var once sync.Once
	fn := func(tx *Tx) error {
		if readOnly {
			v.Read(tx)
		} else {
			v.Write(tx, v.Read(tx)+1)
		}
		once.Do(func() { close(in) })
		<-release
		return nil
	}
	go func() {
		if readOnly {
			errc <- rt.AtomicRO(fn)
		} else {
			errc <- rt.Atomic(fn)
		}
	}()
	<-in
	return errc
}

// switchAsync runs SwitchEngine(to) on its own goroutine; the channel closes
// when it returns.
func switchAsync(rt *Runtime, to Algorithm) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		rt.SwitchEngine(to)
		close(done)
	}()
	return done
}

// TestSwitchWaitsForHeldBlock: a block inside fn — read-only, whose status
// stays active until release poisons it, or writing — keeps SwitchEngine
// from returning until the block returns.
func TestSwitchWaitsForHeldBlock(t *testing.T) {
	for _, readOnly := range []bool{true, false} {
		for _, dir := range switchDirections {
			rt := New(Config{Algorithm: dir[0]})
			v := NewVar(0)
			release := make(chan struct{})
			held := holdBlock(rt, readOnly, v, release)
			sw := switchAsync(rt, dir[1])
			select {
			case <-sw:
				t.Fatalf("readOnly=%v %s->%s: SwitchEngine returned while a block was inside fn",
					readOnly, dir[0].String(), dir[1].String())
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-held; err != nil {
				t.Fatal(err)
			}
			select {
			case <-sw:
			case <-time.After(5 * time.Second):
				t.Fatal("SwitchEngine never returned after the held block did")
			}
		}
	}
}

// TestSwitchParksLateBlock: a block that begins while a drain has the gate
// closed parks in enter — its fn does not run — and runs under the new
// engine once the switch is over.
func TestSwitchParksLateBlock(t *testing.T) {
	for _, dir := range switchDirections {
		rt := New(Config{Algorithm: dir[0]})
		v := NewVar(0)
		release := make(chan struct{})
		held := holdBlock(rt, false, v, release)
		sw := switchAsync(rt, dir[1])
		for rt.swGate.Load() == 0 {
			runtime.Gosched()
		}
		var ran atomic.Bool
		var engine Algorithm
		late := make(chan error, 1)
		go func() {
			late <- rt.Atomic(func(tx *Tx) error {
				ran.Store(true)
				engine = rt.Algorithm()
				v.Write(tx, v.Read(tx)+1)
				return nil
			})
		}()
		parked := func() bool {
			rt.txsMu.Lock()
			defer rt.txsMu.Unlock()
			for _, p := range rt.txs {
				if tx := p.Value(); tx != nil && tx.state() == txParked {
					return true
				}
			}
			return false
		}
		for deadline := time.Now().Add(5 * time.Second); !parked(); {
			if time.Now().After(deadline) {
				t.Fatal("the late block never parked")
			}
			runtime.Gosched()
		}
		if ran.Load() {
			t.Fatalf("%s->%s: a block ran while the gate was closed", dir[0].String(), dir[1].String())
		}
		close(release)
		if err := <-held; err != nil {
			t.Fatal(err)
		}
		<-sw
		if err := <-late; err != nil {
			t.Fatal(err)
		}
		if engine != dir[1] || v.Peek() != 2 {
			t.Fatalf("%s->%s: late block ran under %s, v=%d; want %s, 2",
				dir[0].String(), dir[1].String(), engine.String(), v.Peek(), dir[1].String())
		}
		if parked() {
			t.Fatal("a Tx is still parked after the switch")
		}
	}
}

// TestSwitchAfterPooledTxsDropped: the drain walks weak pointers, so Txs the
// pool drops at garbage collection neither wedge SwitchEngine nor pile up —
// the set stays within twice the peak number of live Txs.
func TestSwitchAfterPooledTxsDropped(t *testing.T) {
	const live = 8
	rt := New(Config{})
	v := NewVar(0)
	hold := func() {
		release := make(chan struct{})
		var held []<-chan error
		for i := 0; i < live; i++ {
			held = append(held, holdBlock(rt, true, v, release))
		}
		close(release)
		for _, h := range held {
			if err := <-h; err != nil {
				t.Fatal(err)
			}
		}
	}
	registered := func() (n, c int) {
		rt.txsMu.Lock()
		defer rt.txsMu.Unlock()
		return len(rt.txs), cap(rt.txs)
	}
	for round := 0; round < 3; round++ {
		hold()
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		select {
		case <-switchAsync(rt, TL2):
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: SwitchEngine wedged after the pool dropped its Txs", round)
		}
		if n, c := registered(); n > 2*live || c > 2*live {
			t.Fatalf("round %d: %d Txs registered (capacity %d) for a peak of %d live", round, n, c, live)
		}
	}
}

// TestSwitchDrainsRetryWaiters: Retry waiters on both engines re-enter and
// park when a drain closes the gate, so a run of switches completes while
// they wait, and each waiter then wakes on the write it was waiting for.
func TestSwitchDrainsRetryWaiters(t *testing.T) {
	const waiters = 4
	rt := New(Config{})
	flag := NewVar(0)
	var started sync.WaitGroup
	started.Add(waiters)
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		var once sync.Once
		go func() {
			done <- rt.Atomic(func(tx *Tx) error {
				v := flag.Read(tx)
				once.Do(started.Done)
				if v == 0 {
					tx.Retry()
				}
				return nil
			})
		}()
	}
	started.Wait()
	for _, to := range []Algorithm{NOrec, TL2, NOrec, TL2} {
		select {
		case <-switchAsync(rt, to):
		case <-time.After(5 * time.Second):
			t.Fatalf("switch to %s wedged on Retry waiters", to.String())
		}
	}
	if err := rt.Atomic(func(tx *Tx) error { flag.Write(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Retry waiter never woke after the switches")
		}
	}
}

// switchDirections covers all four engine-transition directions. The
// identity transitions matter too: a drain that closes and reopens the gate
// with no engine change exercises the quiesce barrier against concurrent
// commits without the clock re-seed in play.
var switchDirections = [4][2]Algorithm{
	{TL2, NOrec},
	{NOrec, TL2},
	{TL2, TL2},
	{NOrec, NOrec},
}

// switchPoints runs test once per transition direction and every step-th
// cut of a diffMix history of 3 workers x 8 transactions, a subtest each.
func switchPoints(t *testing.T, step uint64, test func(t *testing.T, from, to Algorithm, cut uint64)) {
	for _, dir := range switchDirections {
		t.Run(fmt.Sprintf("%v_to_%v", dir[0], dir[1]), func(t *testing.T) {
			for cut := uint64(0); cut <= 3*8; cut += step {
				t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) { test(t, dir[0], dir[1], cut) })
			}
		})
	}
}

// atCut calls sw on its own goroutine once commits() reaches cut; the
// returned wait blocks until it has.
func atCut(cut uint64, commits func() uint64, sw func()) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for commits() < cut {
			runtime.Gosched()
		}
		sw()
	}()
	return func() { <-done }
}

// TestSwitchPointOracle injects a combined CM+engine switch after the c-th
// commit of a recorded history, for every cut c, in all four directions.
// A commit straddling the handoff, a stale clock after the NOrec->TL2
// re-seed or a reader of a half-switched world makes the history fail
// History.Check.
func TestSwitchPointOracle(t *testing.T) {
	switchPoints(t, 1, func(t *testing.T, from, to Algorithm, cut uint64) {
		rt := New(Config{Algorithm: from})
		// CM swap first (undrained by design), then the engine handoff
		// (stop-the-world) at the same cut point.
		wait := atCut(cut, func() uint64 { return rt.Stats().Commits }, func() {
			rt.SetContentionManager(GreedyCM{})
			rt.SwitchEngine(to)
		})
		var h History
		if err := h.record(onRuntime(rt), newCells(diffMix.cells), diffMix, 3, 8, int64(cut)); err != nil {
			t.Fatal(err)
		}
		wait()
		if eng, cms := rt.SwitchCounts(); rt.Algorithm() != to || eng != 1 || cms != 1 {
			t.Fatalf("engine %v after %d engine and %d CM switches, want %v after 1 and 1", rt.Algorithm(), eng, cms, to)
		}
		check(t, &h)
	})
}

// TestSwitchStormSerializability records the hot mix while a storm
// goroutine flips the engine and rotates the contention manager as fast as
// the drain allows; the history must pass History.Check across every
// handoff the storm lands.
func TestSwitchStormSerializability(t *testing.T) {
	cms := []ContentionManager{BackoffCM{}, GreedyCM{}, KarmaCM{}, SuicideCM{}}
	engines := []Algorithm{NOrec, TL2}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rt := New(Config{Algorithm: TL2})
			var stop atomic.Bool
			storm := make(chan struct{})
			go func() {
				defer close(storm)
				for i := 0; !stop.Load(); i++ {
					rt.SetContentionManager(cms[i%len(cms)])
					rt.SwitchEngine(engines[i%len(engines)])
					runtime.Gosched()
				}
			}()
			var h History
			err := h.record(onRuntime(rt), newCells(yieldMix.cells), yieldMix, 4, 2000, seed)
			stop.Store(true)
			<-storm
			if err != nil {
				t.Fatal(err)
			}
			check(t, &h)
			eng, _ := rt.SwitchCounts()
			t.Logf("%d engine switches", eng)
		})
	}
}
