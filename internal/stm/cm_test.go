package stm

import (
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
	owner := &Tx{rt: rt}
	owner.ts.Store(1)
	owner.reset()
	attacker := &Tx{rt: rt}
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
