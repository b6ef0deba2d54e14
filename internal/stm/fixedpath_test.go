package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the fixed cost of an atomic block (DESIGN.md §8): what release
// clears, and how a commit is counted.

// hostBigBlock runs one block of n reads and n/10 writes and returns the Tx
// object that hosted it (a deliberate leak: rubic-lint does not load tests).
// The Vars hold pointers, so both sets carry values the collector can see.
func hostBigBlock(t *testing.T, rt *Runtime, n int) *Tx {
	t.Helper()
	vars := make([]Var[*int], n)
	for i := range vars {
		vars[i].Set(new(int))
	}
	var host *Tx
	if err := rt.Atomic(func(tx *Tx) error {
		host = tx
		for i := range vars {
			vars[i].Read(tx)
		}
		for i := 0; i < n; i += 10 {
			vars[i].Write(tx, new(int))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return host
}

// TestReleaseLeavesNoStalePointers: release clears only the prefix a block
// used, so the whole backing array — not just the prefix — must be free of
// location and value pointers afterwards, or a pooled Tx would pin user values.
func TestReleaseLeavesNoStalePointers(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			tx := hostBigBlock(t, rt, 10_000)
			// Smaller blocks on the same object must not leave anything
			// beyond their own prefix either.
			for i := 0; i < 3; i++ {
				hostBigBlock(t, rt, 100)
			}
			if cap(tx.reads)+cap(tx.vreads) < 10_000 || cap(tx.writes) < 1_000 {
				t.Fatalf("sets were not retained: caps %d/%d/%d", cap(tx.reads), cap(tx.vreads), cap(tx.writes))
			}
			for i, e := range tx.reads[:cap(tx.reads)] {
				if e.base != nil {
					t.Fatalf("reads[%d] still references a location after release", i)
				}
			}
			for i, e := range tx.vreads[:cap(tx.vreads)] {
				if e.base != nil || e.val != (raw{}) {
					t.Fatalf("vreads[%d] still references a location or value after release", i)
				}
			}
			for i, e := range tx.writes[:cap(tx.writes)] {
				if e.base != nil || e.val != (raw{}) {
					t.Fatalf("writes[%d] still references a location or box after release", i)
				}
			}
			if tx.usedReads != 0 || tx.usedVreads != 0 || tx.usedWrites != 0 {
				t.Fatalf("high-water marks survived release: %d/%d/%d", tx.usedReads, tx.usedVreads, tx.usedWrites)
			}
		})
	}
}

// TestReleaseCostFollowsBlockSize is the regression test for clearing to
// capacity: a pooled Tx that once hosted a 10 000-read block must run small
// blocks as fast as a fresh runtime's Tx does. Clearing the retained
// capacity on every release made them ~30x slower; the bound is 2x.
func TestReleaseCostFollowsBlockSize(t *testing.T) {
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	var x Var[int]
	fn := func(tx *Tx) error { x.Read(tx); return nil }
	// best is the fastest of several rounds of 1 000 one-read blocks, and
	// how many of the last round's blocks ran on the object `on`.
	best := func(rt *Runtime, on *Tx) (time.Duration, int) {
		fastest, hits := time.Duration(1<<62), 0
		for round := 0; round < 7; round++ {
			hits = 0
			start := time.Now()
			for i := 0; i < 1000; i++ {
				if err := rt.Atomic(func(tx *Tx) error {
					if tx == on {
						hits++
					}
					return fn(tx)
				}); err != nil {
					t.Fatal(err)
				}
			}
			fastest = min(fastest, time.Since(start))
		}
		return fastest, hits
	}
	used := New(Config{})
	big := hostBigBlock(t, used, 10_000)
	after, hits := best(used, big)
	if hits < 900 {
		t.Skipf("pool handed the big block's Tx back for only %d of 1000 blocks", hits)
	}
	fresh, _ := best(New(Config{}), nil)
	if after > 2*fresh {
		t.Fatalf("1000 one-read blocks: %v on a Tx that hosted a 10 000-read block, %v on a fresh runtime (> 2x)", after, fresh)
	}
}

// TestCommitsCountedOnce: every committed block lands in exactly one of the
// two commit counters, so Stats.Commits (their sum) equals the blocks run
// and ReadOnlyCommits equals the blocks that wrote nothing — exactly, under
// a mixed contended run.
func TestCommitsCountedOnce(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			var hot Var[int]
			cold := make([]Var[int], 64)
			const workers, perWorker = 4, 2000
			var readOnly, writers atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						var err error
						switch (i + w) % 4 {
						case 0: // declared read-only
							err = rt.AtomicRO(func(tx *Tx) error { hot.Read(tx); return nil })
							readOnly.Add(1)
						case 1: // read-write block that happens to write nothing
							err = rt.Atomic(func(tx *Tx) error { cold[i%len(cold)].Read(tx); return nil })
							readOnly.Add(1)
						case 2: // contended writer
							err = rt.Atomic(func(tx *Tx) error { hot.Write(tx, hot.Read(tx)+1); return nil })
							writers.Add(1)
						default: // spread writer
							err = rt.Atomic(func(tx *Tx) error { cold[(i*7+w)%len(cold)].Write(tx, i); return nil })
							writers.Add(1)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			s := rt.Stats()
			if s.ReadOnlyCommits != readOnly.Load() || s.Commits != readOnly.Load()+writers.Load() {
				t.Fatalf("Commits=%d ReadOnlyCommits=%d, want %d and %d (blocks run: %d read-only + %d writers)",
					s.Commits, s.ReadOnlyCommits, readOnly.Load()+writers.Load(), readOnly.Load(), readOnly.Load(), writers.Load())
			}
			if got := hot.Peek(); got != workers*perWorker/4 {
				t.Fatalf("hot = %d, want %d", got, workers*perWorker/4)
			}
		})
	}
}
