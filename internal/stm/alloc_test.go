package stm

import (
	"fmt"
	"testing"
)

// These tests pin the zero-allocation contract of the hot path (DESIGN.md
// §8): a steady-state read-only block allocates nothing, and an update block
// allocates exactly one box per written location whose type needs one. They
// are regression gates — a change that reintroduces a per-transaction
// allocation fails them deterministically, unlike the benchmark gate which
// tolerates noise.

// allocEngines mirrors the benchmark matrix: both engines share the Tx
// recycling machinery but exercise different read/commit protocols.
var allocEngines = []Algorithm{TL2, NOrec}

// warmPool drives enough transactions through rt for the Tx pool and the
// write-set machinery to reach steady state before measuring.
func warmPool(t *testing.T, rt *Runtime, x *Var[int]) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if err := rt.Atomic(func(tx *Tx) error {
			x.Write(tx, x.Read(tx)&0x3f)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAtomicROAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			x := NewVar(41)
			warmPool(t, rt, x)
			var sink int
			fn := func(tx *Tx) error {
				sink = x.Read(tx)
				return nil
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := rt.AtomicRO(fn); err != nil {
					t.Error(err)
				}
			})
			if allocs > 0.001 {
				t.Errorf("AtomicRO allocates %.3f objects/op, want 0", allocs)
			}
			_ = sink
		})
	}
}

// rmwAllocs is the exact allocation count of one committed read-modify-write
// of x, after warm-up.
func rmwAllocs[T any](t *testing.T, algo Algorithm, x *Var[T], next func(T) T) float64 {
	t.Helper()
	rt := New(Config{Algorithm: algo})
	fn := func(tx *Tx) error {
		x.Write(tx, next(x.Read(tx)))
		return nil
	}
	run := func() {
		if err := rt.Atomic(fn); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 64; i++ {
		run()
	}
	return testing.AllocsPerRun(1000, run)
}

// accum is the shape of kmeans' cluster accumulator: wider than a word and
// not a single pointer, so it is the kind of T that still needs a box.
type accum struct {
	Sum   []float64
	Count int
}

// TestAtomicSmallWriteSingleAlloc pins the cost of a committed write exactly:
// nothing for a T that lives in the Var's own words, one box for any other.
func TestAtomicSmallWriteSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	nodes := [2]struct{ n int }{}
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			for name, tc := range map[string]struct{ got, want float64 }{
				// Values past 255, which Go no longer interns when boxing.
				"int64": {rmwAllocs(t, algo, NewVar(int64(1000)), func(v int64) int64 { return v + 1 }), 0},
				"*T": {rmwAllocs(t, algo, NewVar(&nodes[0]), func(p *struct{ n int }) *struct{ n int } {
					if p == &nodes[0] {
						return &nodes[1]
					}
					return &nodes[0]
				}), 0},
				"bool":   {rmwAllocs(t, algo, NewVar(false), func(v bool) bool { return !v }), 0},
				"string": {rmwAllocs(t, algo, NewVar("a"), func(v string) string { return v[:1] }), 1},
				"accum": {rmwAllocs(t, algo, NewVar(accum{}), func(v accum) accum {
					v.Count++
					return v
				}), 1},
			} {
				if tc.got != tc.want {
					t.Errorf("committed RMW on Var[%s] allocates %.3f objects, want exactly %.0f", name, tc.got, tc.want)
				}
			}
		})
	}
}

// TestAllocScalesWithWriteSet: the per-write cost does not depend on the
// write-set size or the engine — w scalar writes cost nothing, w wide ones w
// boxes.
func TestAllocScalesWithWriteSet(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range allocEngines {
		for _, writes := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/w=%d", algo.String(), writes), func(t *testing.T) {
				rt := New(Config{Algorithm: algo})
				nums := make([]Var[int], writes)
				strs := make([]Var[string], writes)
				scalars := func(tx *Tx) error {
					for i := range nums {
						nums[i].Write(tx, nums[i].Read(tx)+1000)
					}
					return nil
				}
				wide := func(tx *Tx) error {
					for i := range strs {
						strs[i].Write(tx, "x"+strs[i].Read(tx)[:0])
					}
					return nil
				}
				for fn, want := range map[*func(*Tx) error]float64{&scalars: 0, &wide: float64(writes)} {
					run := func() {
						if err := rt.Atomic(*fn); err != nil {
							t.Error(err)
						}
					}
					for i := 0; i < 64; i++ { // warm the pool and the write set's capacity
						run()
					}
					if got := testing.AllocsPerRun(500, run); got != want {
						t.Errorf("%d-write Atomic allocates %.3f objects/op, want exactly %.0f", writes, got, want)
					}
				}
			})
		}
	}
}

// TestAtomicROAllocFreePostSwitch pins the adaptive-era contract: the policy
// hook machinery (switch gate check on the transaction path, CM indirection,
// engine handoffs in the runtime's history) must not cost the steady-state
// read-only path its zero-allocation guarantee. The runtime here has been
// through a full engine round trip and a CM swap before measuring.
func TestAtomicROAllocFreePostSwitch(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			other := NOrec
			if algo == NOrec {
				other = TL2
			}
			rt := New(Config{Algorithm: other})
			x := NewVar(41)
			warmPool(t, rt, x)
			rt.SetContentionManager(GreedyCM{})
			rt.SwitchEngine(algo)
			warmPool(t, rt, x)
			var sink int
			fn := func(tx *Tx) error {
				sink = x.Read(tx)
				return nil
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := rt.AtomicRO(fn); err != nil {
					t.Error(err)
				}
			})
			if allocs > 0.001 {
				t.Errorf("post-switch AtomicRO allocates %.3f objects/op, want 0", allocs)
			}
			_ = sink
		})
	}
}
