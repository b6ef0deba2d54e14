package blink

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rubic/internal/stm"
)

var mapEngines = []struct {
	name string
	algo stm.Algorithm
}{
	{"tl2", stm.TL2},
	{"norec", stm.NOrec},
}

// mapShapes are the operation sequences TestMapModel drives. next returns the
// operation (0-5 put, 6-7 delete, 8 Get, 9 LookupFast) and its key; the growth
// shapes are all puts, so every leaf and branch split position is hit in
// order: always the rightmost node, always the leftmost, and scattered.
var mapShapes = []struct {
	name string
	ops  int
	next func(rng *rand.Rand, i int64) (op int, key int64)
}{
	{"random", 30_000, func(rng *rand.Rand, _ int64) (int, int64) { return rng.Intn(10), rng.Int63n(2048) }},
	{"ascending", 50_000, func(_ *rand.Rand, i int64) (int, int64) { return 0, i }},
	{"descending", 50_000, func(_ *rand.Rand, i int64) (int, int64) { return 0, 50_000 - i }},
	{"strided", 50_000, func(_ *rand.Rand, i int64) (int, int64) { return 0, (i * 2654435761) % 100_000 }},
}

// TestMapModel drives each shape's transactional operations against a map
// oracle on both engines, verifying lookups as it goes and, once settled, the
// structure, the size, and the full ordered content through both scan paths.
func TestMapModel(t *testing.T) {
	for _, eng := range mapEngines {
		t.Run(eng.name, func(t *testing.T) {
			for _, shape := range mapShapes {
				t.Run(shape.name, func(t *testing.T) {
					testMapModel(t, stm.New(stm.Config{Algorithm: eng.algo}), shape.ops, shape.next)
				})
			}
		})
	}
}

func testMapModel(t *testing.T, rt *stm.Runtime, ops int, next func(*rand.Rand, int64) (int, int64)) {
	m := NewMap[int64]()
	model := map[int64]int64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		op, k := next(rng, int64(i))
		switch op {
		case 0, 1, 2, 3, 4, 5:
			v := rng.Int63()
			var added bool
			if err := rt.Atomic(func(tx *stm.Tx) error {
				added = m.Put(tx, k, v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			_, had := model[k]
			if added == had {
				t.Fatalf("op %d: Put(%d) added=%v, oracle had=%v", i, k, added, had)
			}
			model[k] = v
		case 6, 7:
			var removed bool
			if err := rt.Atomic(func(tx *stm.Tx) error {
				removed = m.Delete(tx, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if _, had := model[k]; removed != had {
				t.Fatalf("op %d: Delete(%d)=%v, oracle had=%v", i, k, removed, had)
			}
			delete(model, k)
		case 8:
			var got int64
			var ok bool
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				got, ok = m.Get(tx, k)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want, had := model[k]
			if ok != had || (ok && got != want) {
				t.Fatalf("op %d: Get(%d)=(%d,%v), want (%d,%v)", i, k, got, ok, want, had)
			}
		default:
			got, ok := m.LookupFast(k)
			want, had := model[k]
			if ok != had || (ok && got != want) {
				t.Fatalf("op %d: LookupFast(%d)=(%d,%v), want (%d,%v)", i, k, got, ok, want, had)
			}
		}
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	var got []int64
	visit := func(k, v int64) bool {
		if v != model[k] {
			t.Errorf("key %d value %d, want %d", k, v, model[k])
		}
		got = append(got, k)
		return true
	}
	if err := rt.AtomicRO(func(tx *stm.Tx) error {
		if err := m.CheckInvariants(tx); err != nil {
			return err
		}
		if n := m.Len(tx); n != len(model) {
			t.Errorf("Len=%d, oracle %d", n, len(model))
		}
		got = got[:0]
		m.Range(tx, visit)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Range yielded %d keys, oracle %d (or out of order)", len(got), len(want))
	}
	got = got[:0]
	m.ScanFast(math.MinInt64, math.MaxInt64-1, visit)
	if !slices.Equal(got, want) {
		t.Errorf("ScanFast yielded %d keys, oracle %d (or out of order)", len(got), len(want))
	}
}

// TestMapRangeBetween pins the inclusive-bounds semantics and early stop of
// RangeBetween (under AtomicRO) and ScanFast on both engines, over a map of
// every third key in [0, 300) — four leaves.
func TestMapRangeBetween(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int64
		stop   int // stop after this many keys; 0 visits the whole range
		want   []int64
	}{
		{"bounds on keys", 12, 48, 0, []int64{12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42, 45, 48}},
		{"bounds between keys", 7, 23, 0, []int64{9, 12, 15, 18, 21}},
		{"between two neighbours", 10, 11, 0, nil},
		{"single key", 150, 150, 0, []int64{150}},
		{"inverted", 100, 50, 0, nil},
		{"past the last key", 298, 1 << 40, 0, nil},
		{"whole key space", math.MinInt64, math.MaxInt64, 5, []int64{0, 3, 6, 9, 12}},
		{"early stop in the first leaf", 0, 299, 3, []int64{0, 3, 6}},
		{"early stop past a leaf boundary", 90, 299, 4, []int64{90, 93, 96, 99}},
	}
	for _, eng := range mapEngines {
		rt := stm.New(stm.Config{Algorithm: eng.algo})
		m := NewMap[int64]()
		if err := rt.Atomic(func(tx *stm.Tx) error {
			for k := int64(0); k < 300; k += 3 {
				m.Put(tx, k, k*2)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			var got []int64
			visit := func(k, v int64) bool {
				if v != k*2 {
					t.Errorf("%s/%s: key %d value %d, want %d", eng.name, c.name, k, v, k*2)
				}
				got = append(got, k)
				return len(got) != c.stop
			}
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				got = got[:0]
				m.RangeBetween(tx, c.lo, c.hi, visit)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("%s/%s: RangeBetween(%d, %d) = %v, want %v", eng.name, c.name, c.lo, c.hi, got, c.want)
			}
			got = got[:0]
			m.ScanFast(c.lo, c.hi, visit)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s/%s: ScanFast(%d, %d) = %v, want %v", eng.name, c.name, c.lo, c.hi, got, c.want)
			}
		}
		if err := rt.AtomicRO(func(tx *stm.Tx) error {
			if n := m.Len(tx); n != 100 {
				t.Errorf("%s: Len=%d, want 100", eng.name, n)
			}
			return m.CheckInvariants(tx)
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMapSentinelKey: math.MaxInt64 is the +infinity bound of the rightmost
// node of every level, so it can never be bound — Put refuses it by name,
// every read path reports it absent and a range starting at it is empty,
// on an empty map (one leaf) and on a three-level one alike.
func TestMapSentinelKey(t *testing.T) {
	const inf = math.MaxInt64
	for _, eng := range mapEngines {
		for _, keys := range []int64{0, 2000} {
			rt := stm.New(stm.Config{Algorithm: eng.algo})
			m := NewMap[int64]()
			for k := int64(0); k < keys; k++ {
				if err := rt.Atomic(func(tx *stm.Tx) error {
					m.Put(tx, inf-1-k, k)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			visit := func(k, v int64) bool {
				t.Errorf("%s/%d keys: range from the sentinel visited key %d", eng.name, keys, k)
				return true
			}
			if _, ok := m.LookupFast(inf); ok {
				t.Errorf("%s/%d keys: LookupFast found the sentinel", eng.name, keys)
			}
			m.ScanFast(inf, inf, visit)
			if err := rt.Atomic(func(tx *stm.Tx) error {
				if _, ok := m.Get(tx, inf); ok {
					t.Errorf("%s/%d keys: Get found the sentinel", eng.name, keys)
				}
				if m.Delete(tx, inf) {
					t.Errorf("%s/%d keys: Delete removed the sentinel", eng.name, keys)
				}
				m.RangeBetween(tx, inf, inf, visit)
				if n := m.Len(tx); n != int(keys) {
					t.Errorf("%s/%d keys: Len=%d", eng.name, keys, n)
				}
				return m.CheckInvariants(tx)
			}); err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s/%d keys: Put accepted the sentinel", eng.name, keys)
					}
				}()
				_ = rt.Atomic(func(tx *stm.Tx) error {
					m.Put(tx, inf, 1)
					return nil
				})
			}()
		}
	}
}

// TestMapConcurrentHybrid runs transactional writers against fast-path
// readers on both engines. Values encode their key, so any torn or
// inconsistent observation surfaces as a mismatch; the settled state is
// verified against the structural invariants.
func TestMapConcurrentHybrid(t *testing.T) {
	for _, eng := range mapEngines {
		t.Run(eng.name, func(t *testing.T) {
			rt := stm.New(stm.Config{Algorithm: eng.algo})
			m := NewMap[int64]()
			const (
				writers  = 4
				readers  = 4
				keySpace = 512
				opsEach  = 4_000
			)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsEach; i++ {
						k := rng.Int63n(keySpace)
						if rng.Intn(4) == 0 {
							_ = rt.Atomic(func(tx *stm.Tx) error {
								m.Delete(tx, k)
								return nil
							})
						} else {
							v := k<<20 | rng.Int63n(1<<20)
							_ = rt.Atomic(func(tx *stm.Tx) error {
								m.Put(tx, k, v)
								return nil
							})
						}
					}
				}(int64(w + 1))
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < opsEach; i++ {
						k := rng.Int63n(keySpace)
						if v, ok := m.LookupFast(k); ok && v>>20 != k {
							panic("torn fast lookup: value does not encode key")
						}
						if i%64 == 0 {
							m.ScanFast(k, k+32, func(sk, sv int64) bool {
								if sv>>20 != sk {
									panic("torn fast scan: value does not encode key")
								}
								return true
							})
						}
					}
				}(int64(100 + r))
			}
			wg.Wait()
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				return m.CheckInvariants(tx)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
