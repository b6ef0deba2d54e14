package stm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAllCMNames(t *testing.T) {
	cms := []ContentionManager{
		SuicideCM{}, BackoffCM{}, GreedyCM{}, TwoPhaseCM{}, KarmaCM{}, PolkaCM{},
	}
	want := []string{"suicide", "backoff", "greedy", "two-phase", "karma", "polka"}
	for i, cm := range cms {
		if cm.Name() != want[i] {
			t.Errorf("cm %d Name = %q, want %q", i, cm.Name(), want[i])
		}
	}
}

// setWork gives tx the karma w on both sides of a conflict: work is what it
// compares as an attacker, workPub what competitors read of it as an owner.
func setWork(tx *Tx, w int64) {
	tx.work = w
	tx.workPub.Store(w)
}

func TestKarmaRicherWins(t *testing.T) {
	rt := New(Config{})
	rich := &Tx{rt: rt}
	rich.reset()
	setWork(rich, 100)
	poor := &Tx{rt: rt}
	poor.reset()
	setWork(poor, 5)

	cm := KarmaCM{}
	if cm.ShouldAbort(rich, poor) {
		t.Fatal("richer attacker should not abort")
	}
	if poor.status.Load() != txDoomed {
		t.Fatal("poorer owner should have been doomed")
	}
	poor2 := &Tx{rt: rt}
	poor2.reset()
	setWork(poor2, 5)
	if !cm.ShouldAbort(poor2, rich) {
		t.Fatal("poorer attacker should abort")
	}
	if rich.status.Load() == txDoomed {
		t.Fatal("richer owner must not be doomed by a poorer attacker")
	}
}

func TestKarmaAccumulatesAcrossRetries(t *testing.T) {
	rt := New(Config{CM: KarmaCM{}})
	x := NewVar(0)
	// A transaction that reads 10 variables accumulates work 10 per attempt.
	vars := make([]*Var[int], 10)
	for i := range vars {
		vars[i] = NewVar(i)
	}
	var observed int64
	err := rt.Atomic(func(tx *Tx) error {
		for _, v := range vars {
			_ = v.Read(tx)
		}
		x.Write(tx, 1)
		observed = tx.work
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed < 11 {
		t.Fatalf("work = %d, want >= 11 (10 reads + 1 write)", observed)
	}
}

func TestTwoPhaseEscalates(t *testing.T) {
	rt := New(Config{})
	owner := &Tx{rt: rt, birth: 1}
	owner.ts.Store(1)
	owner.reset()
	attacker := &Tx{rt: rt, birth: 2}
	attacker.ts.Store(2)
	attacker.reset()

	cm := TwoPhaseCM{Threshold: 2}
	// Young attacker: timid (aborts self), owner untouched.
	attacker.attempt = 0
	if !cm.ShouldAbort(attacker, owner) {
		t.Fatal("young attacker should abort itself")
	}
	// Old attacker that is also older by timestamp: escalates to greedy.
	older := &Tx{rt: rt}
	older.reset()
	older.attempt = 5
	if cm.ShouldAbort(older, owner) {
		t.Fatal("escalated older attacker should win")
	}
	if owner.status.Load() != txDoomed {
		t.Fatal("owner should be doomed after greedy escalation")
	}
}

func TestBackoffBounded(t *testing.T) {
	cm := BackoffCM{Base: time.Microsecond, Max: 50 * time.Microsecond}
	start := time.Now()
	for attempt := 0; attempt < 30; attempt++ {
		cm.BeforeRetry(nil, attempt)
	}
	// 30 retries at <= ~50µs each plus scheduling slack must stay well under
	// a second; this guards against unbounded exponentiation.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("30 backoffs took %v", elapsed)
	}
}

// TestCMProgressUnderContention: every manager must complete a contended
// counter workload (progress/liveness smoke test).
func TestCMProgressUnderContention(t *testing.T) {
	for _, cm := range []ContentionManager{
		SuicideCM{}, BackoffCM{}, GreedyCM{}, TwoPhaseCM{}, KarmaCM{}, PolkaCM{},
	} {
		cm := cm
		t.Run(cm.Name(), func(t *testing.T) {
			rt := New(Config{CM: cm})
			x := NewVar(0)
			const goroutines, perG = 4, 100
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						if err := rt.Atomic(func(tx *Tx) error {
							x.Write(tx, x.Read(tx)+1)
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := x.Peek(); got != goroutines*perG {
				t.Fatalf("counter = %d, want %d", got, goroutines*perG)
			}
		})
	}
}

// customCM is a manager the package has no mark for: it must be treated as
// one that reads owners.
type customCM struct{}

func (customCM) ShouldAbort(_, _ *Tx) bool { return true }
func (customCM) BeforeRetry(*Tx, int)      {}
func (customCM) Name() string              { return "custom" }

// TestOwnerPublishedOnlyWhereRead: a block holding locks publishes its owner
// pointer, birth and karma only under a manager that reads them — every
// manager but SuicideCM and BackoffCM, custom ones included — and every
// lock's owner is nil again once the block commits or rolls back.
func TestOwnerPublishedOnlyWhereRead(t *testing.T) {
	const unset = 1 << 40
	errRollback := errors.New("roll back")
	for _, tc := range []struct {
		cm        ContentionManager
		publishes bool
	}{
		{SuicideCM{}, false}, {BackoffCM{}, false}, {GreedyCM{}, true}, {TwoPhaseCM{}, true},
		{KarmaCM{}, true}, {PolkaCM{}, true}, {customCM{}, true},
	} {
		t.Run(tc.cm.Name(), func(t *testing.T) {
			rt := New(Config{CM: tc.cm})
			var x, y Var[int]
			for _, want := range []error{nil, errRollback} {
				err := rt.Atomic(func(tx *Tx) error {
					tx.ts.Store(unset)
					tx.workPub.Store(unset)
					x.Write(tx, x.Read(tx)+1)
					y.Write(tx, 1)
					owner := (*Tx)(nil)
					if tc.publishes {
						owner = tx
					}
					for _, b := range []*varBase{&x.base, &y.base} {
						if got := b.owner.Load(); got != owner {
							t.Errorf("lock held: owner %p, want %p", got, owner)
						}
					}
					ts, work := tx.ts.Load(), tx.workPub.Load()
					if tc.publishes && (ts != tx.birth || work != tx.work) || !tc.publishes && (ts != unset || work != unset) {
						t.Errorf("ts %d, workPub %d (birth %d, work %d): publishing %v", ts, work, tx.birth, tx.work, tc.publishes)
					}
					return want
				})
				if !errors.Is(err, want) {
					t.Fatalf("Atomic = %v, want %v", err, want)
				}
				if x.base.owner.Load() != nil || y.base.owner.Load() != nil {
					t.Fatalf("an owner outlived the block (returned %v)", want)
				}
			}
		})
	}
}

// TestBirthOnlyUnderOrderingManagers: a block draws a birth timestamp from
// the runtime's shared tsc word only when the installed manager orders by
// birth, so uncontended blocks under the default BackoffCM leave it at 0.
func TestBirthOnlyUnderOrderingManagers(t *testing.T) {
	rt := New(Config{})
	x := NewVar(0)
	for i := 0; i < 10_000; i++ {
		if err := rt.AtomicRO(func(tx *Tx) error { x.Read(tx); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := rt.Atomic(func(tx *Tx) error { x.Write(tx, x.Read(tx)+1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.tsc.Load(); got != 0 {
		t.Fatalf("tsc = %d after uncontended blocks under BackoffCM, want 0", got)
	}
}

// TestBirthStableAcrossAttempts: under a manager that orders by birth, every
// block draws exactly one timestamp, and a block that conflicts keeps it on
// every attempt — the property that makes greedy management starvation-free.
func TestBirthStableAcrossAttempts(t *testing.T) {
	for _, cm := range []ContentionManager{GreedyCM{}, TwoPhaseCM{}} {
		t.Run(cm.Name(), func(t *testing.T) {
			rt := New(Config{CM: cm})
			x := NewVar(0)
			const blocks = 100
			for i := 0; i < blocks; i++ {
				if err := rt.Atomic(func(tx *Tx) error { x.Write(tx, i); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			if got := rt.tsc.Load(); got != blocks {
				t.Fatalf("tsc = %d after %d blocks, want one birth each", got, blocks)
			}
			var births, published []uint64
			if err := rt.Atomic(func(tx *Tx) error {
				x.Write(tx, -1)
				births = append(births, tx.birth)
				published = append(published, tx.ts.Load())
				if tx.Attempt() < 3 {
					tx.conflict(ConflictValidation)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(births) != 4 || rt.tsc.Load() != blocks+1 {
				t.Fatalf("%d attempts, tsc %d; want 4 attempts and one more birth", len(births), rt.tsc.Load())
			}
			for i := range births {
				if births[i] != blocks+1 || published[i] != blocks+1 {
					t.Fatalf("attempt %d: birth %d, published %d; want %d on every attempt", i, births[i], published[i], blocks+1)
				}
			}
		})
	}
}

// TestSwitchBackoffToGreedyMidBlock: blocks that began under BackoffCM have
// no birth when the manager becomes GreedyCM inside one of them. They rank
// older than every block born after the swap, and the contended run still
// completes with every increment.
func TestSwitchBackoffToGreedyMidBlock(t *testing.T) {
	rt := New(Config{})
	hot := make([]Var[int], 4)
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := rt.Atomic(func(tx *Tx) error {
					a, b := &hot[(i+w)%len(hot)], &hot[(i+w+1)%len(hot)]
					a.Write(tx, a.Read(tx)+1)
					if w == 0 && i == perWorker/4 {
						rt.SetContentionManager(GreedyCM{})
					}
					b.Write(tx, b.Read(tx)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("contended blocks did not complete after the mid-block manager swap")
	}
	sum := 0
	for i := range hot {
		sum += hot[i].Peek()
	}
	if sum != 2*workers*perWorker {
		t.Fatalf("increments sum to %d, want %d", sum, 2*workers*perWorker)
	}
}

// TestGreedyRanksPreSwapBlockOlder: a block begun under BackoffCM (birth 0)
// that attacks, after the swap to GreedyCM, an owner born under GreedyCM
// dooms it; the owner retries and both commit.
func TestGreedyRanksPreSwapBlockOlder(t *testing.T) {
	rt := New(Config{})
	var x Var[int]
	begun, lockHeld := make(chan struct{}), make(chan struct{})
	var onceBegun, onceHeld sync.Once
	deadline := time.Now().Add(10 * time.Second)
	old := make(chan error, 1)
	go func() {
		old <- rt.Atomic(func(tx *Tx) error {
			onceBegun.Do(func() { close(begun) })
			<-lockHeld
			x.Write(tx, x.Read(tx)+1)
			return nil
		})
	}()
	<-begun
	rt.SetContentionManager(GreedyCM{})
	err := rt.Atomic(func(tx *Tx) error {
		x.Write(tx, x.Read(tx)+1)
		if tx.Attempt() == 0 {
			onceHeld.Do(func() { close(lockHeld) })
			for time.Now().Before(deadline) {
				_ = x.Read(tx) // checkAlive unwinds once doomed
			}
			t.Error("the owner born after the swap was never doomed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-old; err != nil {
		t.Fatal(err)
	}
	if x.Peek() != 2 || rt.Stats().Conflicts[ConflictDoomed] == 0 {
		t.Fatalf("x = %d, doomed aborts %d; want 2 and at least one", x.Peek(), rt.Stats().Conflicts[ConflictDoomed])
	}
}
