package stm

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// Tests for the adaptive backoff ladder: plan() is a pure function of
// (attempt, PRNG draw, procs), and all jitter comes from the per-Tx
// xorshift PRNG, so every decision here is checked deterministically.

// TestNextRandDeterministicPerTx: the jitter stream is a pure function of
// the transaction's birth timestamp — equal seeds give equal streams,
// different seeds give different ones, and no draw is ever zero-valued in a
// way that would reseed mid-stream.
func TestNextRandDeterministicPerTx(t *testing.T) {
	draw := func(seed uint64, n int) []uint64 {
		tx := &Tx{birth: seed}
		out := make([]uint64, n)
		for i := range out {
			out[i] = tx.nextRand()
		}
		return out
	}
	a, b := draw(7, 32), draw(7, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same seed diverged: %#x != %#x", i, a[i], b[i])
		}
	}
	c := draw(8, 32)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

// TestBackoffPlanDeterministic: plan is pure — identical inputs give
// identical steps, so a transaction's whole backoff schedule is replayable.
func TestBackoffPlanDeterministic(t *testing.T) {
	cm := BackoffCM{}
	for attempt := 1; attempt <= 20; attempt++ {
		for _, r := range []uint64{0, 1, 0xDEADBEEF, ^uint64(0)} {
			s1 := cm.plan(attempt, r, 4)
			s2 := cm.plan(attempt, r, 4)
			if s1 != s2 {
				t.Fatalf("plan(%d, %#x, 4) not deterministic: %+v != %+v", attempt, r, s1, s2)
			}
		}
	}
}

// TestBackoffLadderEscalation pins the spin → yield → sleep phase
// boundaries on a multicore host and the no-spin degenerate ladder on a
// single schedulable context.
func TestBackoffLadderEscalation(t *testing.T) {
	cm := BackoffCM{Base: time.Microsecond, Max: 50 * time.Microsecond}
	const r = 0xABCDEF0123456789 // any draw large enough to clear the 1µs sleep floor

	for attempt := 1; attempt <= backoffSpinRetries; attempt++ {
		s := cm.plan(attempt, r, 4)
		if s.spins <= 0 || s.yields != 0 || s.sleep != 0 {
			t.Fatalf("attempt %d on 4 procs: want pure spin step, got %+v", attempt, s)
		}
		if s.spins > backoffSpinCap<<uint(attempt-1) {
			t.Fatalf("attempt %d: spin count %d exceeds bound", attempt, s.spins)
		}
		// A single schedulable context can never overlap with the owner:
		// spinning must be skipped entirely.
		if s1 := cm.plan(attempt, r, 1); s1.spins != 0 || s1.yields <= 0 {
			t.Fatalf("attempt %d on 1 proc: want yield step, got %+v", attempt, s1)
		}
	}
	for attempt := backoffSpinRetries + 1; attempt <= backoffYieldRetries; attempt++ {
		s := cm.plan(attempt, r, 4)
		if s.yields <= 0 || s.yields > backoffYieldCap || s.spins != 0 || s.sleep != 0 {
			t.Fatalf("attempt %d: want bounded yield step, got %+v", attempt, s)
		}
	}
	sawSleep := false
	for attempt := backoffYieldRetries + 1; attempt <= 40; attempt++ {
		s := cm.plan(attempt, r, 4)
		if s.spins != 0 {
			t.Fatalf("attempt %d: spinning after the yield phase: %+v", attempt, s)
		}
		if s.sleep > cm.Max {
			t.Fatalf("attempt %d: sleep %v exceeds Max %v", attempt, s.sleep, cm.Max)
		}
		if s.sleep > 0 {
			sawSleep = true
		}
	}
	if !sawSleep {
		t.Fatal("ladder never escalated to sleeping")
	}
	// A draw below the sleep floor degrades to a yield, never a busy sleep.
	if s := cm.plan(backoffYieldRetries+1, 0, 4); s.sleep != 0 || s.yields != 1 {
		t.Fatalf("sub-floor draw: want single yield, got %+v", s)
	}
}

// TestBackoffPlanTotal sweeps plan over its whole domain, including the
// attempts and processor counts no caller passes today: every input plans
// exactly one non-zero action, within that action's cap.
func TestBackoffPlanTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []uint64{0, 1, backoffSpinCap - 1, backoffSpinCap, ^uint64(0)}
	for i := 0; i < 64; i++ {
		draws = append(draws, rng.Uint64())
	}
	for _, cm := range []BackoffCM{{}, {Base: time.Microsecond, Max: 50 * time.Microsecond}} {
		maxSleep := cm.Max
		if maxSleep <= 0 {
			maxSleep = backoffSleepMax
		}
		for attempt := -1; attempt <= 64; attempt++ {
			for _, procs := range []int{0, 1, 2, 64} {
				for _, r := range draws {
					s := cm.plan(attempt, r, procs)
					nonZero := 0
					for _, set := range []bool{s.spins != 0, s.yields != 0, s.sleep != 0} {
						if set {
							nonZero++
						}
					}
					if nonZero != 1 {
						t.Fatalf("plan(%d, %#x, %d) = %+v: want exactly one non-zero field", attempt, r, procs, s)
					}
					if s.spins < 0 || s.spins > backoffSpinCap<<(backoffSpinRetries-1) ||
						s.yields < 0 || s.yields > backoffYieldCap ||
						s.sleep < 0 || s.sleep > maxSleep {
						t.Fatalf("plan(%d, %#x, %d) = %+v: outside its cap", attempt, r, procs, s)
					}
					if procs <= 1 && s.spins != 0 {
						t.Fatalf("plan(%d, %#x, %d) = %+v: spins with no second processor", attempt, r, procs, s)
					}
				}
			}
		}
	}
}

// TestBackoffJitterMatchesTxStream: BeforeRetry consumes exactly the
// transaction's PRNG stream, so two transactions with equal birth
// timestamps plan identical ladders (the deterministic-jitter contract the
// chaos and differential harnesses rely on).
func TestBackoffJitterMatchesTxStream(t *testing.T) {
	mk := func() *Tx { return &Tx{birth: 99} }
	cm := BackoffCM{}
	tx1, tx2 := mk(), mk()
	for attempt := 1; attempt <= 10; attempt++ {
		s1 := cm.plan(attempt, backoffRand(tx1), 4)
		s2 := cm.plan(attempt, backoffRand(tx2), 4)
		if s1 != s2 {
			t.Fatalf("attempt %d: equal-seed transactions planned %+v vs %+v", attempt, s1, s2)
		}
	}
	// Detached use (nil tx) must not panic and must keep producing steps.
	for attempt := 1; attempt <= 10; attempt++ {
		cm.BeforeRetry(nil, attempt)
	}
}

// TestGreedyDoomsOwnerMidFlight drives the doomed-owner path end to end
// under GreedyCM: an older attacker finds the lock held, dooms the younger
// owner, and both transactions still commit — the victim after one
// ConflictDoomed abort.
func TestGreedyDoomsOwnerMidFlight(t *testing.T) {
	rt := New(Config{CM: GreedyCM{}})
	x := NewVar(0)

	attackerStarted := make(chan struct{})
	lockHeld := make(chan struct{})
	var once sync.Once
	deadline := time.Now().Add(10 * time.Second)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Victim: starts second (younger timestamp), acquires the write
		// lock, then keeps performing transactional operations until the
		// attacker's doom unwinds the attempt.
		<-attackerStarted
		err := rt.Atomic(func(tx *Tx) error {
			x.Write(tx, x.Read(tx)+1)
			if tx.Attempt() == 0 {
				once.Do(func() { close(lockHeld) })
				for time.Now().Before(deadline) {
					// checkAlive inside Read observes the doom and unwinds
					// with ConflictDoomed; the retry takes the branch above
					// and returns promptly.
					_ = x.Read(tx)
				}
				t.Error("victim was never doomed")
			}
			return nil
		})
		if err != nil {
			t.Errorf("victim: %v", err)
		}
	}()

	// Attacker: starts first so its birth timestamp is older, but only
	// touches x once the victim holds the lock.
	err := rt.Atomic(func(tx *Tx) error {
		if tx.Attempt() == 0 {
			close(attackerStarted)
			<-lockHeld
		}
		x.Write(tx, x.Read(tx)+1)
		return nil
	})
	if err != nil {
		t.Fatalf("attacker: %v", err)
	}
	wg.Wait()

	if got := x.Peek(); got != 2 {
		t.Fatalf("x = %d, want 2 (both transactions committed)", got)
	}
	stats := rt.Stats()
	if stats.Conflicts[ConflictDoomed] == 0 {
		t.Fatalf("no ConflictDoomed abort recorded: %+v", stats.Conflicts)
	}
}

// TestKarmaSeesOwnersPublishedWork drives the Karma comparison end to end.
// work is a plain field of the running transaction; competitors see only the
// copy an owner published when it took its write lock. That copy must be
// current at the moment of the conflict: an attacker that invested less than
// the owner had when it locked x backs off (the owner is never doomed), and
// one that invested more dooms the owner mid-flight.
func TestKarmaSeesOwnersPublishedWork(t *testing.T) {
	for _, cm := range []ContentionManager{KarmaCM{}, PolkaCM{}} {
		for _, tc := range []struct {
			name                      string
			ownerReads, attackerReads int
			wantOwnerDoomed           bool
		}{
			// The poorer side gains one unit of work per retry, so the richer
			// one's lead is made far longer than the conflict can last.
			{"richer owner survives", 100_000, 0, false},
			{"richer attacker dooms owner", 0, 100_000, true},
		} {
			t.Run(cm.Name()+"/"+tc.name, func(t *testing.T) {
				rt := New(Config{CM: cm})
				var x Var[int]
				pad := make([]Var[int], 200)
				invest := func(tx *Tx, n int) {
					for i := 0; i < n; i++ {
						pad[i%len(pad)].Read(tx)
					}
				}
				lockHeld := make(chan struct{})
				var once sync.Once
				deadline := time.Now().Add(10 * time.Second)

				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := rt.Atomic(func(tx *Tx) error {
						invest(tx, tc.ownerReads)
						x.Write(tx, x.Read(tx)+1) // publishes the work invested so far
						if tx.Attempt() > 0 {
							return nil
						}
						once.Do(func() { close(lockHeld) })
						if tc.wantOwnerDoomed {
							for time.Now().Before(deadline) {
								_ = x.Read(tx) // checkAlive unwinds once doomed
							}
							t.Error("owner was never doomed")
							return nil
						}
						// Hold the lock until the attacker has backed off once.
						for rt.Stats().Aborts == 0 && time.Now().Before(deadline) {
							time.Sleep(50 * time.Microsecond)
						}
						return nil
					})
					if err != nil {
						t.Errorf("owner: %v", err)
					}
				}()

				<-lockHeld
				if err := rt.Atomic(func(tx *Tx) error {
					invest(tx, tc.attackerReads)
					x.Write(tx, x.Read(tx)+1)
					return nil
				}); err != nil {
					t.Fatalf("attacker: %v", err)
				}
				wg.Wait()

				if got := x.Peek(); got != 2 {
					t.Fatalf("x = %d, want 2 (both transactions committed)", got)
				}
				s := rt.Stats()
				if doomed := s.Conflicts[ConflictDoomed] > 0; doomed != tc.wantOwnerDoomed {
					t.Fatalf("owner doomed = %v, want %v (conflicts %+v)", doomed, tc.wantOwnerDoomed, s.Conflicts)
				}
				if !tc.wantOwnerDoomed && s.Conflicts[ConflictLockedRead]+s.Conflicts[ConflictLockedWrite] == 0 {
					t.Fatalf("poorer attacker never backed off: %+v", s.Conflicts)
				}
			})
		}
	}
}

// TestCrossedOwnersStayLive: two transactions each hold the lock the other
// wants, and each has invested more since taking its lock than the other had
// when it took its own. A contention manager that let both sides win that
// comparison would have each doom the other and wait forever; whatever the
// managers decide, waiting must not outlive being doomed, and both blocks
// must commit.
func TestCrossedOwnersStayLive(t *testing.T) {
	for _, cm := range []ContentionManager{KarmaCM{}, PolkaCM{}, GreedyCM{}, TwoPhaseCM{}} {
		t.Run(cm.Name(), func(t *testing.T) {
			rt := New(Config{CM: cm})
			var x, y Var[int]
			pad := make([]Var[int], 64)
			var locked sync.WaitGroup
			locked.Add(2)
			var once [2]sync.Once
			cross := func(id int, mine, theirs *Var[int]) error {
				return rt.Atomic(func(tx *Tx) error {
					mine.Write(tx, mine.Read(tx)+1) // lock taken early, little invested
					if tx.Attempt() == 0 {
						once[id].Do(locked.Done)
						locked.Wait() // both locks are now held
					}
					for i := range pad {
						pad[i].Read(tx) // invest well past the other's published work
					}
					theirs.Write(tx, theirs.Read(tx)+1)
					return nil
				})
			}
			done := make(chan error, 2)
			go func() { done <- cross(0, &x, &y) }()
			go func() { done <- cross(1, &y, &x) }()
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatal("crossed lock owners never resolved: both are waiting")
				}
			}
			if x.Peek() != 2 || y.Peek() != 2 {
				t.Fatalf("x=%d y=%d, want 2 and 2", x.Peek(), y.Peek())
			}
		})
	}
}
