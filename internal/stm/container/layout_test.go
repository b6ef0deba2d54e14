package container

import (
	"testing"
	"unsafe"

	"rubic/internal/stm"
	"rubic/internal/stm/container/blink"
)

// Containers hold their stm.Vars by value (DESIGN.md §8, Memory layout).
// These tests pin what that buys — node sizes and allocation counts — so a
// change that quietly goes back to one heap object per Var, or grows the
// per-location metadata, fails here rather than in a benchmark's noise.

func TestNodeSizes(t *testing.T) {
	// key + two 40-byte Vars: the 96-byte malloc class, and nothing else —
	// the node used to be 80 bytes plus a 16-byte box per Var and 8 more for
	// an int64 past 255.
	if got := unsafe.Sizeof(hentry[int64]{}); got != 88 {
		t.Errorf("Sizeof(hentry[int64]) = %d, want 88", got)
	}
	// key + five Vars: exactly the 208-byte class.
	if got := unsafe.Sizeof(rbnode[int64]{}); got != 208 {
		t.Errorf("Sizeof(rbnode[int64]) = %d, want 208", got)
	}
	// key, left and the words of right a descent reads (lock word, pointer)
	// share the node's first cache line.
	var n rbnode[int64]
	if off := unsafe.Offsetof(n.left); off != 8 {
		t.Errorf("rbnode.left at offset %d, want 8 (right after the key)", off)
	}
	if off := unsafe.Offsetof(n.right); off+16 > 64 {
		t.Errorf("rbnode.right starts at offset %d: its lock word and pointer leave the first cache line", off)
	}
}

// atomicAllocs is the exact allocation count of one committed fn, warm.
func atomicAllocs(t *testing.T, rt *stm.Runtime, fn func(tx *stm.Tx)) float64 {
	t.Helper()
	body := func(tx *stm.Tx) error { fn(tx); return nil }
	run := func() {
		if err := rt.Atomic(body); err != nil {
			t.Error(err)
		}
	}
	run()
	return testing.AllocsPerRun(100, run)
}

func TestContainerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	// The bucket array is one allocation of zero Vars: no Var or box per
	// bucket.
	if got := testing.AllocsPerRun(10, func() { _ = NewHashMap[int64](4096) }); got != 1 {
		t.Errorf("NewHashMap(4096) allocates %.0f objects, want 1 (the bucket array; the map itself does not escape here)", got)
	}
	// A red-black node is one object: color and value sit in their Vars'
	// words, links stay zero Vars until a rotation writes them.
	if got := testing.AllocsPerRun(100, func() { _ = newRBNode[int64](1, 1<<40) }); got != 1 {
		t.Errorf("newRBNode allocates %.0f objects, want 1", got)
	}
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := stm.New(stm.Config{Algorithm: algo})
			m := NewHashMap[int64](4096)
			key := int64(0)
			// A new key costs its node; the bucket head and the size are
			// written in place.
			if got := atomicAllocs(t, rt, func(tx *stm.Tx) { key++; m.Put(tx, key, 1<<40) }); got != 1 {
				t.Errorf("HashMap.Put of a new key allocates %.1f objects, want 1", got)
			}
			// An update of an existing key, the KV write path, costs nothing.
			if got := atomicAllocs(t, rt, func(tx *stm.Tx) {
				v, _ := m.Get(tx, 1)
				m.Put(tx, 1, v+1)
			}); got != 0 {
				t.Errorf("HashMap read-modify-write allocates %.1f objects, want 0", got)
			}
			// A blink.Map leaf update is copy-on-write: the new values slice
			// and the new snapshot. Publishing the snapshot adds nothing.
			bm := blink.NewMap[int64]()
			for k := int64(0); k < 64; k++ {
				if err := rt.Atomic(func(tx *stm.Tx) error { bm.Put(tx, k, 1); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			if got := atomicAllocs(t, rt, func(tx *stm.Tx) { bm.Put(tx, 17, 1<<40) }); got != 2 {
				t.Errorf("blink.Map.Put over an existing key allocates %.1f objects, want 2", got)
			}
		})
	}
}
