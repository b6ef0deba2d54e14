package stm

import (
	"strings"
	"testing"
)

// The stmescape leak pattern: capture the Tx handle past its atomic block.
// rubic-lint only loads non-test files, so the deliberate leaks below don't
// trip the self-hosting TestRepoClean gate.

func leakTx(t *testing.T, rt *Runtime) *Tx {
	t.Helper()
	var leaked *Tx
	if err := rt.Atomic(func(tx *Tx) error {
		leaked = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return leaked
}

func mustPoisonPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s on a leaked Tx did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "after its atomic block") || !strings.Contains(msg, "object generation ") {
			t.Fatalf("%s panic = %v, want use-after-Atomic poison message naming the generation", what, r)
		}
	}()
	fn()
}

func TestLeakedTxPanicsOnUse(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			x := NewVar(1)
			leaked := leakTx(t, rt)
			mustPoisonPanic(t, "Read", func() { x.Read(leaked) })
			mustPoisonPanic(t, "Write", func() { x.Write(leaked, 2) })
			// The variable is untouched by the poisoned accesses.
			if got := x.Peek(); got != 1 {
				t.Fatalf("Peek = %d after poisoned accesses, want 1", got)
			}
		})
	}
}

// TestPoisonSurvivesRecycling pins the sharpest version of the hazard: the
// leaked handle's object is recycled by a later atomic block, and the stale
// handle must still fail loudly rather than operate on the new block's
// state. (Detection is via status; the generation counter in the panic
// message attributes the leak.)
func TestPoisonSurvivesRecycling(t *testing.T) {
	rt := New(Config{})
	x := NewVar(0)
	leaked := leakTx(t, rt)
	genAtLeak := leaked.generation()
	if genAtLeak == 0 {
		t.Fatal("generation not bumped on release")
	}
	// Drive more blocks through the runtime; with a single-P pool these
	// recycle the leaked object.
	reused := false
	for i := 0; i < 32; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			if tx == leaked {
				reused = true
			}
			x.Write(tx, i&0x7f)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reused {
		t.Log("pool did not hand the leaked object back (GC or multi-P); poison check still applies")
	}
	if got := leaked.generation(); got < genAtLeak {
		t.Fatalf("generation went backwards: %d -> %d", genAtLeak, got)
	}
	mustPoisonPanic(t, "Read", func() { x.Read(leaked) })
}

// TestPoolRecyclesTx verifies recycling actually happens (the zero-alloc
// claim depends on it): consecutive sequential blocks reuse one object.
func TestPoolRecyclesTx(t *testing.T) {
	rt := New(Config{})
	seen := make(map[*Tx]int)
	for i := 0; i < 100; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			seen[tx]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	max := 0
	for _, n := range seen {
		if n > max {
			max = n
		}
	}
	if max < 2 {
		t.Fatalf("no Tx object was reused across 100 sequential blocks (distinct objects: %d)", len(seen))
	}
}

// TestReleaseDropsOversizedSets pins the retention cap: a huge transaction
// must not pin its sets on the pooled object.
func TestReleaseDropsOversizedSets(t *testing.T) {
	rt := New(Config{})
	n := maxRetainedEntries + 1
	vars := make([]*Var[int], n)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	var leaked *Tx
	if err := rt.Atomic(func(tx *Tx) error {
		for _, v := range vars {
			v.Write(tx, 1)
		}
		leaked = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if leaked.writes != nil || leaked.windex != nil {
		t.Fatalf("oversized write set retained: writes cap=%d windex len=%d",
			cap(leaked.writes), len(leaked.windex))
	}
}
