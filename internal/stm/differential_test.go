package stm

import (
	"runtime"
	"sync"
	"testing"
)

// Differential stress test: the same randomized workload runs on every
// engine, and every run's commit history is checked
// against a sequential specification by exhaustive interleaving search.
// This pins the semantics the lazy GV4 clock must preserve — a commit that
// wrongly skips validation shows up as a history no sequential order can
// explain.

// diffRecord is one committed transaction: the snapshot it observed and the
// single write it published.
type diffRecord struct {
	reads [3]int
	widx  int
	val   int
}

// diffWorkload runs workers*txPerWorker transactions, each reading all
// three vars and read-modify-writing one, and returns the per-worker commit
// histories plus the final (Peek) state.
func diffWorkload(t *testing.T, rt *Runtime, workers, txPerWorker int) ([][]diffRecord, [3]int) {
	t.Helper()
	vars := [3]*Var[int]{NewVar(0), NewVar(0), NewVar(0)}
	histories := make([][]diffRecord, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txPerWorker; i++ {
				var snap [3]int
				widx := (w + i) % 3
				val := 1 + w*txPerWorker + i // unique, never the initial 0
				err := rt.Atomic(func(tx *Tx) error {
					for j, v := range vars {
						snap[j] = v.Read(tx)
					}
					vars[widx].Write(tx, val)
					return nil
				})
				if err != nil {
					errs[w] = err
					return
				}
				histories[w] = append(histories[w], diffRecord{reads: snap, widx: widx, val: val})
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	var final [3]int
	for j, v := range vars {
		final[j] = v.Peek()
	}
	return histories, final
}

// findSerialOrder searches for a sequential execution explaining the
// histories: transactions interleave arbitrarily across workers but respect
// per-worker program order, every transaction's snapshot must equal the
// state at its position, and the final state must match the observed one.
// Because each transaction reads ALL variables, the snapshot constraint is
// total and the branching factor is at most the worker count.
func findSerialOrder(histories [][]diffRecord, final [3]int) bool {
	next := make([]int, len(histories))
	var state [3]int
	remaining := 0
	for _, h := range histories {
		remaining += len(h)
	}
	var search func() bool
	search = func() bool {
		if remaining == 0 {
			return state == final
		}
		for w, h := range histories {
			if next[w] >= len(h) {
				continue
			}
			r := h[next[w]]
			if r.reads != state {
				continue
			}
			prev := state[r.widx]
			state[r.widx] = r.val
			next[w]++
			remaining--
			if search() {
				return true
			}
			remaining++
			next[w]--
			state[r.widx] = prev
		}
		return false
	}
	return search()
}

func TestDifferentialSerializability(t *testing.T) {
	const workers, txPerWorker = 4, 6
	for _, algo := range []Algorithm{TL2, NOrec} {
		// lazy=true names the commit clock: TL2 commits through the lazy
		// GV4 scheme (clock.tickLazy).
		t.Run(algo.String()+"/lazy=true", func(t *testing.T) {
			for round := 0; round < 20; round++ {
				rt := New(Config{Algorithm: algo})
				histories, final := diffWorkload(t, rt, workers, txPerWorker)
				if !findSerialOrder(histories, final) {
					t.Fatalf("round %d: no sequential order explains the commit history\nhistories: %+v\nfinal: %v",
						round, histories, final)
				}
			}
		})
	}
}

// --- Switch-point oracle ---
//
// The adaptive runtime hot-swaps the engine and contention manager while
// transactions are in flight. The oracle above doesn't care how a history
// was produced, only whether a sequential order explains it — so the same
// search proves switch safety: inject a switch at every possible commit
// boundary and at arbitrary racing points, and any tearing (a commit
// straddling the handoff, a stale clock after the NOrec->TL2 re-seed, a
// reader observing a half-switched world) surfaces as an unserializable
// history.

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

// TestSwitchPointOracle runs the differential workload with a combined
// CM+engine switch injected between every pair of commits: for every cut
// point c in [0, total], one round switches after the c-th commit lands.
// Every resulting history must still be explainable by a sequential order.
func TestSwitchPointOracle(t *testing.T) {
	const workers, txPerWorker = 3, 4
	const total = workers * txPerWorker
	for _, dir := range switchDirections {
		from, to := dir[0], dir[1]
		t.Run(from.String()+"_to_"+to.String(), func(t *testing.T) {
			for cut := uint64(0); cut <= total; cut++ {
				rt := New(Config{Algorithm: from})
				done := make(chan struct{})
				go func() {
					defer close(done)
					for rt.Stats().Commits < cut {
						runtime.Gosched()
					}
					// CM swap first (undrained by design), then the engine
					// handoff (stop-the-world) at the same cut point.
					rt.SetContentionManager(GreedyCM{})
					rt.SwitchEngine(to)
				}()
				histories, final := diffWorkload(t, rt, workers, txPerWorker)
				<-done
				if got := rt.Algorithm(); got != to {
					t.Fatalf("cut %d: engine %s after switch, want %s", cut, got.String(), to.String())
				}
				if eng, cms := rt.SwitchCounts(); eng != 1 || cms != 1 {
					t.Fatalf("cut %d: switch counts engine=%d cm=%d, want 1/1", cut, eng, cms)
				}
				if !findSerialOrder(histories, final) {
					t.Fatalf("cut %d (%s->%s): no sequential order explains the commit history\nhistories: %+v\nfinal: %v",
						cut, from.String(), to.String(), histories, final)
				}
			}
		})
	}
}

// TestSwitchStormSerializability is the mid-commit-storm schedule: a storm
// goroutine flips the engine and rotates the contention manager as fast as
// the drain allows while the full differential workload commits underneath.
// Serializability must hold across every handoff the storm manages to land.
func TestSwitchStormSerializability(t *testing.T) {
	const workers, txPerWorker = 4, 6
	cms := []ContentionManager{BackoffCM{}, GreedyCM{}, KarmaCM{}, SuicideCM{}}
	engines := []Algorithm{NOrec, TL2}
	for round := 0; round < 10; round++ {
		rt := New(Config{Algorithm: TL2})
		stop := make(chan struct{})
		var storm sync.WaitGroup
		storm.Add(1)
		go func() {
			defer storm.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rt.SetContentionManager(cms[i%len(cms)])
				rt.SwitchEngine(engines[i%len(engines)])
				runtime.Gosched()
			}
		}()
		histories, final := diffWorkload(t, rt, workers, txPerWorker)
		close(stop)
		storm.Wait()
		eng, _ := rt.SwitchCounts()
		if !findSerialOrder(histories, final) {
			t.Fatalf("round %d (%d switches): no sequential order explains the commit history\nhistories: %+v\nfinal: %v",
				round, eng, histories, final)
		}
	}
}

// TestFindSerialOrderRejectsBadHistory sanity-checks the oracle itself: a
// history with a snapshot no interleaving can produce must be rejected.
func TestFindSerialOrderRejectsBadHistory(t *testing.T) {
	histories := [][]diffRecord{
		{{reads: [3]int{0, 0, 0}, widx: 0, val: 1}},
		// Claims to have seen var0=1 and var1=5, but nobody ever wrote 5.
		{{reads: [3]int{1, 5, 0}, widx: 1, val: 2}},
	}
	if findSerialOrder(histories, [3]int{1, 2, 0}) {
		t.Fatal("oracle accepted an unserializable history")
	}
}
