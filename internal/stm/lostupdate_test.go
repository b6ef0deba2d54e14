package stm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTL2NoLostIncrements is the regression for the snapshot-extension hole
// in Tx.read: a read sampled before a concurrent commit to the same location
// and returned after an extend() that raised rv past that commit is stale,
// yet carries a version rv now covers — and a later quiet commit (wv ==
// rv+1) skips the validation that would have caught it, so an increment
// vanishes. Workers hammer read-modify-write increments on a handful of hot
// Vars; the values must sum to the committed increments. It needs two
// workers running at once to bite, so it is meaningful only at GOMAXPROCS
// >= 2 (it passes trivially on one).
func TestTL2NoLostIncrements(t *testing.T) {
	if testing.Short() {
		t.Skip("stress loop")
	}
	const hot, workers = 16, 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"lazy-clock", Config{Algorithm: TL2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deadline := time.Now().Add(time.Second)
			for round := 0; time.Now().Before(deadline); round++ {
				rt := New(tc.cfg)
				vars := make([]*Var[int], hot)
				for i := range vars {
					vars[i] = NewVar(0)
				}
				var committed atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 20000; i++ {
							v := vars[rng.Intn(hot)]
							if err := rt.Atomic(func(tx *Tx) error {
								v.Write(tx, v.Read(tx)+1)
								return nil
							}); err != nil {
								t.Errorf("Atomic: %v", err)
								return
							}
							committed.Add(1)
						}
					}(int64(round*workers + w))
				}
				wg.Wait()
				sum := 0
				for _, v := range vars {
					sum += v.Peek()
				}
				if int64(sum) != committed.Load() {
					t.Fatalf("round %d: values sum to %d, committed increments %d", round, sum, committed.Load())
				}
			}
		})
	}
}
