package stm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadWriteSingleTx(t *testing.T) {
	rt := New(Config{})
	x := NewVar(10)
	err := rt.Atomic(func(tx *Tx) error {
		if got := x.Read(tx); got != 10 {
			t.Errorf("initial read = %d, want 10", got)
		}
		x.Write(tx, 42)
		if got := x.Read(tx); got != 42 {
			t.Errorf("read-own-write = %d, want 42", got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if got := x.Peek(); got != 42 {
		t.Fatalf("Peek after commit = %d, want 42", got)
	}
}

func TestUserErrorRollsBack(t *testing.T) {
	rt := New(Config{})
	x := NewVar("before")
	sentinel := errors.New("boom")
	err := rt.Atomic(func(tx *Tx) error {
		x.Write(tx, "after")
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Atomic err = %v, want %v", err, sentinel)
	}
	if got := x.Peek(); got != "before" {
		t.Fatalf("value after user abort = %q, want %q", got, "before")
	}
	if s := rt.Stats(); s.UserAborts != 1 || s.Commits != 0 {
		t.Fatalf("stats = %+v, want 1 user abort, 0 commits", s)
	}
}

func TestPanicReleasesLocks(t *testing.T) {
	rt := New(Config{})
	x := NewVar(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic to propagate")
			}
		}()
		_ = rt.Atomic(func(tx *Tx) error {
			x.Write(tx, 2)
			panic("user panic")
		})
	}()
	// The lock must have been released: a fresh transaction must succeed.
	if err := rt.Atomic(func(tx *Tx) error { x.Write(tx, 3); return nil }); err != nil {
		t.Fatalf("Atomic after panic: %v", err)
	}
	if got := x.Peek(); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

func TestReadOnlyWritePanics(t *testing.T) {
	rt := New(Config{})
	x := NewVar(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on write in read-only tx")
		}
	}()
	_ = rt.AtomicRO(func(tx *Tx) error {
		x.Write(tx, 1)
		return nil
	})
}

func TestCounterConcurrent(t *testing.T) {
	for _, cm := range []ContentionManager{SuicideCM{}, BackoffCM{}, GreedyCM{}, TwoPhaseCM{}} {
		cm := cm
		t.Run(cm.Name(), func(t *testing.T) {
			rt := New(Config{CM: cm})
			x := NewVar(0)
			const goroutines = 8
			const perG = 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						err := rt.Atomic(func(tx *Tx) error {
							x.Write(tx, x.Read(tx)+1)
							return nil
						})
						if err != nil {
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
			if s := rt.Stats(); s.Commits != goroutines*perG {
				t.Fatalf("commits = %d, want %d", s.Commits, goroutines*perG)
			}
		})
	}
}

// TestInvariantTransfer checks snapshot isolation: concurrent transfers
// between two accounts always preserve the total.
func TestInvariantTransfer(t *testing.T) {
	rt := New(Config{})
	const total = 1000
	a := NewVar(total)
	b := NewVar(0)
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup

	// Writers move money back and forth.
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				err := rt.Atomic(func(tx *Tx) error {
					av, bv := a.Read(tx), b.Read(tx)
					amount := (i*7+g)%20 + 1
					if g%2 == 0 && av >= amount {
						a.Write(tx, av-amount)
						b.Write(tx, bv+amount)
					} else if bv >= amount {
						b.Write(tx, bv-amount)
						a.Write(tx, av+amount)
					}
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(g)
	}
	// Readers must always observe a consistent total.
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := rt.AtomicRO(func(tx *Tx) error {
					if sum := a.Read(tx) + b.Read(tx); sum != total {
						t.Errorf("observed total %d, want %d", sum, total)
					}
					return nil
				})
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if sum := a.Peek() + b.Peek(); sum != total {
		t.Fatalf("final total = %d, want %d", sum, total)
	}
}

func TestMaxRetries(t *testing.T) {
	rt := New(Config{MaxRetries: 3})
	x := NewVar(0)

	// Hold a lock from another "transaction" by doctoring a competitor Tx.
	blocker := &Tx{rt: rt}
	blocker.reset()
	x.Write(blocker, 99)

	err := rt.Atomic(func(tx *Tx) error {
		x.Write(tx, 1)
		return nil
	})
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
	blocker.rollback()
	if err := rt.Atomic(func(tx *Tx) error { x.Write(tx, 1); return nil }); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

func TestGreedyOlderWins(t *testing.T) {
	rt := New(Config{CM: GreedyCM{}})
	x := NewVar(0)

	older := &Tx{rt: rt, birth: 1}
	older.ts.Store(1)
	older.reset()
	younger := &Tx{rt: rt, birth: 2}
	younger.ts.Store(2)
	younger.reset()
	x.Write(younger, 5)

	cm := GreedyCM{}
	if cm.ShouldAbort(older, younger) {
		t.Fatal("older attacker should not abort")
	}
	if younger.status.Load() != txDoomed {
		t.Fatal("younger owner should have been doomed")
	}
	if !cm.ShouldAbort(younger, older) {
		t.Fatal("younger attacker should abort")
	}
	younger.rollback()
}

func TestVersionClockAdvancesOnlyOnWriteCommit(t *testing.T) {
	rt := New(Config{})
	x := NewVar(0)
	v0 := rt.GlobalVersion()
	_ = rt.AtomicRO(func(tx *Tx) error { _ = x.Read(tx); return nil })
	if rt.GlobalVersion() != v0 {
		t.Fatal("read-only commit advanced the clock")
	}
	_ = rt.Atomic(func(tx *Tx) error { x.Write(tx, 1); return nil })
	if rt.GlobalVersion() != v0+1 {
		t.Fatalf("clock = %d, want %d", rt.GlobalVersion(), v0+1)
	}
}

func TestStatsSnapshotAndReset(t *testing.T) {
	rt := New(Config{})
	x := NewVar(0)
	for i := 0; i < 5; i++ {
		_ = rt.Atomic(func(tx *Tx) error { x.Write(tx, i); return nil })
	}
	s := rt.Stats()
	if s.Commits != 5 {
		t.Fatalf("commits = %d, want 5", s.Commits)
	}
	rt.ResetStats()
	if s := rt.Stats(); s.Commits != 0 || s.Aborts != 0 {
		t.Fatalf("stats after reset = %+v, want zeros", s)
	}
}

// TestQuickSequentialSemantics property: any sequence of transactional
// increments and assignments applied to a Var matches a plain sequential
// model.
func TestQuickSequentialSemantics(t *testing.T) {
	f := func(ops []int16) bool {
		rt := New(Config{})
		x := NewVar(0)
		model := 0
		for _, op := range ops {
			v := int(op)
			if v%2 == 0 {
				model += v
				_ = rt.Atomic(func(tx *Tx) error {
					x.Write(tx, x.Read(tx)+v)
					return nil
				})
			} else {
				model = v
				_ = rt.Atomic(func(tx *Tx) error {
					x.Write(tx, v)
					return nil
				})
			}
		}
		return x.Peek() == model
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConcurrentSum property: for arbitrary positive op counts, the sum
// of per-goroutine additions equals the final value.
func TestQuickConcurrentSum(t *testing.T) {
	f := func(counts []uint8) bool {
		if len(counts) > 6 {
			counts = counts[:6]
		}
		rt := New(Config{})
		x := NewVar(int64(0))
		var want int64
		var wg sync.WaitGroup
		for _, c := range counts {
			c := int64(c % 50)
			want += c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int64(0); i < c; i++ {
					_ = rt.Atomic(func(tx *Tx) error {
						x.Write(tx, x.Read(tx)+1)
						return nil
					})
				}
			}()
		}
		wg.Wait()
		return x.Peek() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConflictKindString(t *testing.T) {
	for k := ConflictKind(0); k < conflictKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if ConflictKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
}

func TestManyVarsDisjointWriters(t *testing.T) {
	rt := New(Config{})
	const n = 64
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				i := i
				for k := 0; k < 50; k++ {
					_ = rt.Atomic(func(tx *Tx) error {
						vars[i].Write(tx, vars[i].Read(tx)+1)
						return nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	for i, v := range vars {
		if got := v.Peek(); got != 50 {
			t.Fatalf("vars[%d] = %d, want 50", i, got)
		}
	}
}

func ExampleRuntime_Atomic() {
	rt := New(Config{})
	balance := NewVar(100)
	err := rt.Atomic(func(tx *Tx) error {
		b := balance.Read(tx)
		if b < 30 {
			return errors.New("insufficient funds")
		}
		balance.Write(tx, b-30)
		return nil
	})
	fmt.Println(err, balance.Peek())
	// Output: <nil> 70
}
