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
	if got := unsafe.Sizeof(hentry[int64]{}); got > 80 {
		t.Errorf("Sizeof(hentry[int64]) = %d, want <= 80 (key + two 32-byte Vars)", got)
	}
	// key, left and the head of right share the node's first cache line.
	var n rbnode[int64]
	if off := unsafe.Offsetof(n.left); off != 8 {
		t.Errorf("rbnode.left at offset %d, want 8 (right after the key)", off)
	}
	if off := unsafe.Offsetof(n.right); off >= 64 {
		t.Errorf("rbnode.right starts at offset %d, past the first cache line", off)
	}
}

func TestContainerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	rt := stm.New(stm.Config{})
	atomic := func(fn func(tx *stm.Tx)) {
		if err := rt.Atomic(func(tx *stm.Tx) error { fn(tx); return nil }); err != nil {
			t.Error(err)
		}
	}

	// The bucket array is one allocation of zero Vars: no Var or box per
	// bucket (one object per bucket plus one box each before embedding).
	if got := testing.AllocsPerRun(10, func() { _ = NewHashMap[int64](4096) }); got > 3 {
		t.Errorf("NewHashMap(4096) allocates %.0f objects, want <= 3", got)
	}

	// A new key in an empty chain costs the node, the box of its value, and
	// the publication boxes of the two writes (bucket head, size). Values
	// and sizes below 256 box for free, which keeps the count exact; a
	// larger int64 adds its own boxing per write, embedded or not.
	m := NewHashMap[int64](4096)
	key := int64(0)
	atomic(func(tx *stm.Tx) { m.Put(tx, key, 1) }) // warm the Tx pool
	if got := testing.AllocsPerRun(100, func() {
		key++
		atomic(func(tx *stm.Tx) { m.Put(tx, key, 7) })
	}); got > 4 {
		t.Errorf("HashMap.Put of a new key allocates %.1f objects, want <= 4", got)
	}

	// A red-black insert allocates the node and the boxes of its color and
	// value up front; links stay zero Vars until a rotation writes them.
	if got := testing.AllocsPerRun(100, func() { _ = newRBNode[int64](1, 7) }); got > 3 {
		t.Errorf("newRBNode allocates %.0f objects, want <= 3 (was 11)", got)
	}

	// A blink.Map leaf update is copy-on-write: the new values slice, the
	// new snapshot, and the publication box. Embedding the node's Var must
	// not add to it.
	bm := blink.NewMap[int64]()
	for k := int64(0); k < 64; k++ {
		atomic(func(tx *stm.Tx) { bm.Put(tx, k, 1) })
	}
	if got := testing.AllocsPerRun(100, func() {
		atomic(func(tx *stm.Tx) { bm.Put(tx, 17, 7) })
	}); got > 3 {
		t.Errorf("blink.Map.Put over an existing key allocates %.1f objects, want <= 3", got)
	}
}
