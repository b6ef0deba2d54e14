package stm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// shardedEngines enumerates the uniform-engine configurations plus a mixed
// one (shard 0 switched to the other engine after construction), which
// exercises the cross-shard commit's NOrec pinning and TL2 validation in the
// same two-phase commit.
var shardedEngines = []struct {
	name  string
	algo  Algorithm
	mixed bool
}{
	{"tl2", TL2, false},
	{"norec", NOrec, false},
	{"mixed", TL2, true},
}

func newShardedForTest(n int, eng struct {
	name  string
	algo  Algorithm
	mixed bool
}) *ShardedRuntime {
	sr := NewSharded(n, Config{Algorithm: eng.algo})
	if eng.mixed {
		other := NOrec
		if eng.algo == NOrec {
			other = TL2
		}
		sr.Shard(0).SwitchEngine(other)
	}
	return sr
}

func TestNewShardedRounding(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := NewSharded(tc.n, Config{}).Shards(); got != tc.want {
			t.Errorf("NewSharded(%d).Shards() = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestShardForRouting(t *testing.T) {
	sr := NewSharded(4, Config{})
	counts := make([]int, sr.Shards())
	for k := uint64(0); k < 1<<14; k++ {
		i := sr.ShardFor(k)
		if i < 0 || i >= sr.Shards() {
			t.Fatalf("ShardFor(%d) = %d out of range", k, i)
		}
		if sr.ForKey(k) != sr.Shard(i) {
			t.Fatalf("ForKey(%d) disagrees with ShardFor", k)
		}
		if sr.ShardFor(k) != i {
			t.Fatalf("ShardFor(%d) not deterministic", k)
		}
		counts[i]++
	}
	// Fibonacci hashing on a dense key space should spread roughly evenly;
	// assert no shard is starved or hoards more than half the keys.
	for i, c := range counts {
		if c == 0 || c > 1<<13 {
			t.Fatalf("shard %d holds %d of %d keys: %v", i, c, 1<<14, counts)
		}
	}
	// Single-shard runtimes route everything to shard 0.
	one := NewSharded(1, Config{})
	for k := uint64(0); k < 1000; k++ {
		if one.ShardFor(k) != 0 {
			t.Fatalf("1-shard ShardFor(%d) = %d", k, one.ShardFor(k))
		}
	}
}

// TestShardForTotal: ShardFor maps every key, the extremes included, into
// [0, Shards()) for every shard count NewSharded accepts.
func TestShardForTotal(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 2, 3, 64, 65} {
		sr := NewSharded(n, Config{})
		for _, key := range []uint64{0, 1, math.MaxUint64, 1 << 63} {
			if i := sr.ShardFor(key); i < 0 || i >= sr.Shards() {
				t.Errorf("NewSharded(%d).ShardFor(%#x) = %d, want [0, %d)", n, key, i, sr.Shards())
			}
		}
	}
}

// TestAtomicKeySingleShard drives keyed single-shard traffic and checks the
// folded statistics account for every commit without any cross commits.
func TestAtomicKeySingleShard(t *testing.T) {
	sr := NewSharded(4, Config{})
	const keys = 64
	vars := make([]*Var[int], keys)
	for i := range vars {
		vars[i] = NewVar(0)
	}
	const perKey = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perKey*keys/4; i++ {
				k := uint64((w*perKey*keys/4 + i) % keys)
				if err := sr.AtomicKey(k, func(tx *Tx) error {
					vars[k].Write(tx, vars[k].Read(tx)+1)
					return nil
				}); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for k := uint64(0); k < keys; k++ {
		var v int
		if err := sr.AtomicROKey(k, func(tx *Tx) error {
			v = vars[k].Read(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if total != perKey*keys {
		t.Fatalf("summed counters = %d, want %d", total, perKey*keys)
	}
	if got := sr.Stats().Commits; got < perKey*keys {
		t.Fatalf("folded Commits = %d, want >= %d", got, perKey*keys)
	}
	if sr.CrossCommits() != 0 {
		t.Fatalf("CrossCommits = %d for single-shard traffic", sr.CrossCommits())
	}
}

// TestAtomicAcrossTransfer is the bank invariant across shards: concurrent
// cross-shard transfers and cross-shard audits; the total must never change.
func TestAtomicAcrossTransfer(t *testing.T) {
	for _, eng := range shardedEngines {
		t.Run(eng.name, func(t *testing.T) {
			sr := newShardedForTest(4, eng)
			const accounts = 16
			const initial = 1000
			vars := make([]*Var[int], accounts)
			shardOf := make([]int, accounts)
			for i := range vars {
				vars[i] = NewVar(initial)
				shardOf[i] = sr.ShardFor(uint64(i))
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 300; i++ {
						a, b := rng.Intn(accounts), rng.Intn(accounts)
						if a == b {
							continue
						}
						amt := rng.Intn(50)
						if err := sr.AtomicAcross(func(cx *CrossTx) error {
							ta, tb := cx.On(shardOf[a]), cx.On(shardOf[b])
							vars[a].Write(ta, vars[a].Read(ta)-amt)
							vars[b].Write(tb, vars[b].Read(tb)+amt)
							return nil
						}); err != nil {
							panic(err)
						}
					}
				}(int64(w + 1))
			}
			// Concurrent auditors: a cross-shard snapshot of every account
			// must always sum to the initial total.
			auditStop := make(chan struct{})
			var auditors sync.WaitGroup
			auditors.Add(1)
			go func() {
				defer auditors.Done()
				for {
					select {
					case <-auditStop:
						return
					default:
					}
					sum := 0
					if err := sr.AtomicAcross(func(cx *CrossTx) error {
						sum = 0
						for i := range vars {
							sum += vars[i].Read(cx.On(shardOf[i]))
						}
						return nil
					}); err != nil {
						panic(err)
					}
					if sum != accounts*initial {
						panic(fmt.Sprintf("audit saw total %d, want %d", sum, accounts*initial))
					}
				}
			}()
			wg.Wait()
			close(auditStop)
			auditors.Wait()
			sum := 0
			for i := range vars {
				sum += vars[i].Peek()
			}
			if sum != accounts*initial {
				t.Fatalf("final total %d, want %d", sum, accounts*initial)
			}
			if sr.CrossCommits() == 0 {
				t.Fatal("no cross-shard commits recorded")
			}
		})
	}
}

// TestAtomicAcrossSnapshotVsSingleShard pins the anomaly the combined commit
// point exists to prevent: a cross-shard writer keeps two vars on different
// shards equal, single-shard writers churn unrelated vars (advancing the
// per-shard clocks/seqlocks independently), and a cross-shard reader must
// never observe the pair unequal — which a per-sub-transaction "quiet
// read-only commit" would permit.
func TestAtomicAcrossSnapshotVsSingleShard(t *testing.T) {
	for _, eng := range shardedEngines {
		t.Run(eng.name, func(t *testing.T) {
			sr := newShardedForTest(2, eng)
			a, b := NewVar(0), NewVar(0) // a on shard 0, b on shard 1
			noiseA, noiseB := NewVar(0), NewVar(0)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // cross-shard writer: a and b move in lockstep
				defer wg.Done()
				for i := 1; i < 400; i++ {
					if err := sr.AtomicAcross(func(cx *CrossTx) error {
						a.Write(cx.On(0), i)
						b.Write(cx.On(1), i)
						return nil
					}); err != nil {
						panic(err)
					}
				}
			}()
			go func() { // single-shard noise on shard 0
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = sr.Shard(0).Atomic(func(tx *Tx) error {
						noiseA.Write(tx, noiseA.Read(tx)+1)
						return nil
					})
				}
			}()
			go func() { // single-shard noise on shard 1
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_ = sr.Shard(1).Atomic(func(tx *Tx) error {
						noiseB.Write(tx, noiseB.Read(tx)+1)
						return nil
					})
				}
			}()
			for i := 0; i < 400; i++ {
				var va, vb int
				if err := sr.AtomicAcross(func(cx *CrossTx) error {
					va = a.Read(cx.On(0))
					vb = b.Read(cx.On(1))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if va != vb {
					t.Fatalf("cross-shard snapshot tore: a=%d b=%d", va, vb)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestAtomicAcrossSingleShardDegenerate: spanning "one" shard must still
// commit correctly through the combined path.
func TestAtomicAcrossSingleShardDegenerate(t *testing.T) {
	sr := NewSharded(4, Config{})
	v := NewVar(0)
	for i := 0; i < 10; i++ {
		if err := sr.AtomicAcross(func(cx *CrossTx) error {
			tx := cx.On(2)
			v.Write(tx, v.Read(tx)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Peek(); got != 10 {
		t.Fatalf("value %d, want 10", got)
	}
	if sr.CrossCommits() != 10 {
		t.Fatalf("CrossCommits = %d, want 10", sr.CrossCommits())
	}
}

// TestAtomicAcrossUserError: fn's error aborts the attempt without
// publishing anything and is returned unwrapped.
func TestAtomicAcrossUserError(t *testing.T) {
	sr := NewSharded(2, Config{})
	v0, v1 := NewVar(0), NewVar(0)
	sentinel := errors.New("business rule")
	err := sr.AtomicAcross(func(cx *CrossTx) error {
		v0.Write(cx.On(0), 99)
		v1.Write(cx.On(1), 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if v0.Peek() != 0 || v1.Peek() != 0 {
		t.Fatalf("aborted writes published: %d %d", v0.Peek(), v1.Peek())
	}
	if ua := sr.Stats().UserAborts; ua == 0 {
		t.Fatal("no user abort recorded")
	}
}

// TestAtomicAcrossDurableGate: a commit sink on any shard forbids
// cross-shard transactions.
type nopSink struct{ csn uint64 }

func (s *nopSink) BeginCommit() uint64         { s.csn++; return s.csn }
func (s *nopSink) Publish(uint64, []DurableOp) {}
func (s *nopSink) WaitDurable(uint64)          {}

func TestAtomicAcrossDurableGate(t *testing.T) {
	sr := NewSharded(4, Config{})
	sr.Shard(3).AttachCommitSink(&nopSink{})
	err := sr.AtomicAcross(func(cx *CrossTx) error { return nil })
	if !errors.Is(err, ErrCrossShardDurable) {
		t.Fatalf("err = %v, want ErrCrossShardDurable", err)
	}
	sr.Shard(3).AttachCommitSink(nil)
	if err := sr.AtomicAcross(func(cx *CrossTx) error { return nil }); err != nil {
		t.Fatalf("after detach: %v", err)
	}
}

// TestAtomicAcrossRetryUnsupported: Tx.Retry has no cross-shard wait
// protocol; it must fail loudly instead of hanging.
func TestAtomicAcrossRetryUnsupported(t *testing.T) {
	sr := NewSharded(2, Config{})
	v := NewVar(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Tx.Retry inside AtomicAcross did not panic")
		}
	}()
	_ = sr.AtomicAcross(func(cx *CrossTx) error {
		tx := cx.On(0)
		if v.Read(tx) == 0 {
			tx.Retry()
		}
		return nil
	})
}

// TestShardedSwitchEngine sweeps the engine across all shards while cross-
// and single-shard traffic commits underneath; every shard must land on the
// target engine and the bank invariant must hold throughout.
func TestShardedSwitchEngine(t *testing.T) {
	sr := NewSharded(4, Config{Algorithm: TL2})
	const accounts = 8
	const initial = 100
	vars := make([]*Var[int], accounts)
	shardOf := make([]int, accounts)
	for i := range vars {
		vars[i] = NewVar(initial)
		shardOf[i] = sr.ShardFor(uint64(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b {
					continue
				}
				if err := sr.AtomicAcross(func(cx *CrossTx) error {
					ta, tb := cx.On(shardOf[a]), cx.On(shardOf[b])
					vars[a].Write(ta, vars[a].Read(ta)-1)
					vars[b].Write(tb, vars[b].Read(tb)+1)
					return nil
				}); err != nil {
					panic(err)
				}
			}
		}(int64(w + 1))
	}
	engines := []Algorithm{NOrec, TL2, NOrec, TL2}
	for _, to := range engines {
		sr.SwitchEngine(to)
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	for i := 0; i < sr.Shards(); i++ {
		if got := sr.Shard(i).Algorithm(); got != TL2 {
			t.Fatalf("shard %d engine %s after sweep, want TL2", i, got.String())
		}
	}
	sum := 0
	for i := range vars {
		sum += vars[i].Peek()
	}
	if sum != accounts*initial {
		t.Fatalf("total %d after switch storm, want %d", sum, accounts*initial)
	}
}

// recordSharded records s on sr with cell c on shard c mod the shard count.
// A transaction over cells of one shard runs on that shard's Runtime, any
// other through AtomicAcross.
func recordSharded(h *History, sr *ShardedRuntime, s shape, workers, txs int, seed int64) error {
	shard := func(c int) int { return c % sr.Shards() }
	h.shardOf = shard
	run := func(cells []int, readOnly bool, body func(func(int) *Tx, int) error) error {
		for _, c := range cells {
			if shard(c) != shard(cells[0]) {
				return sr.AtomicAcross(func(cx *CrossTx) error {
					return body(func(c int) *Tx { return cx.On(shard(c)) }, cx.attempt)
				})
			}
		}
		return onRuntime(sr.Shard(shard(cells[0])))(cells, readOnly, body)
	}
	return h.record(run, newCells(s.cells), s, workers, txs, seed)
}

// TestFindSerialOrderMaskedRejectsBadHistory: the same history on two
// shards, where Check holds aborted attempts to opacity one shard at a time,
// must still be rejected — its bad reader committed across both.
func TestFindSerialOrderMaskedRejectsBadHistory(t *testing.T) {
	rejectsBadHistory(t, func(c int) int { return c % 2 })
}

// TestShardedSerializability records the hot mix — single-shard and
// cross-shard transactions, read-only audits spanning every shard — on every
// engine configuration, and checks it with History.Check.
func TestShardedSerializability(t *testing.T) {
	for _, eng := range shardedEngines {
		t.Run(eng.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					var h History
					if err := recordSharded(&h, newShardedForTest(4, eng), yieldMix, 4, 1000, seed); err != nil {
						t.Fatal(err)
					}
					check(t, &h)
				})
			}
		})
	}
}

// TestShardedSwitchPointOracle injects a full-sweep engine switch after the
// c-th commit for every other cut c, and the mixed single/cross-shard
// history must still pass History.Check.
func TestShardedSwitchPointOracle(t *testing.T) {
	switchPoints(t, 2, func(t *testing.T, from, to Algorithm, cut uint64) {
		sr := NewSharded(4, Config{Algorithm: from})
		wait := atCut(cut, func() uint64 { return sr.Stats().Commits }, func() { sr.SwitchEngine(to) })
		var h History
		if err := recordSharded(&h, sr, diffMix, 3, 8, int64(cut)); err != nil {
			t.Fatal(err)
		}
		wait()
		for i := 0; i < sr.Shards(); i++ {
			if got := sr.Shard(i).Algorithm(); got != to {
				t.Fatalf("shard %d engine %v, want %v", i, got, to)
			}
		}
		check(t, &h)
	})
}
