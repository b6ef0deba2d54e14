package container

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"rubic/internal/stm"
	"rubic/internal/stm/container/blink"
)

func TestHashMapBasic(t *testing.T) {
	rt := stm.New(stm.Config{})
	m := NewHashMap[string](4)
	run(t, rt, func(tx *stm.Tx) {
		if m.Len(tx) != 0 {
			t.Error("new map not empty")
		}
		if !m.Put(tx, 1, "one") {
			t.Error("first Put should insert")
		}
		if m.Put(tx, 1, "uno") {
			t.Error("second Put should update")
		}
		if v, ok := m.Get(tx, 1); !ok || v != "uno" {
			t.Errorf("Get(1) = %q,%v", v, ok)
		}
		if v, inserted := m.PutIfAbsent(tx, 1, "x"); inserted || v != "uno" {
			t.Errorf("PutIfAbsent existing = %q,%v", v, inserted)
		}
		if v, inserted := m.PutIfAbsent(tx, 2, "two"); !inserted || v != "two" {
			t.Errorf("PutIfAbsent new = %q,%v", v, inserted)
		}
		if m.Len(tx) != 2 {
			t.Errorf("Len = %d, want 2", m.Len(tx))
		}
		if !m.Delete(tx, 1) || m.Delete(tx, 1) {
			t.Error("Delete semantics wrong")
		}
		if m.Contains(tx, 1) {
			t.Error("deleted key still present")
		}
	})
}

// TestHashMapModel compares against a Go map under a random op stream,
// including colliding keys (tiny bucket count forces chains).
func TestHashMapModel(t *testing.T) {
	rt := stm.New(stm.Config{})
	m := NewHashMap[int](1) // 16 buckets: plenty of chaining with 200 keys
	model := map[int64]int{}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 3000; step++ {
		key := int64(rng.Intn(200))
		val := rng.Int()
		op := rng.Intn(10)
		run(t, rt, func(tx *stm.Tx) {
			switch {
			case op < 5:
				inserted := m.Put(tx, key, val)
				_, existed := model[key]
				if inserted == existed {
					t.Fatalf("step %d: Put inserted=%v existed=%v", step, inserted, existed)
				}
				model[key] = val
			case op < 8:
				deleted := m.Delete(tx, key)
				if _, existed := model[key]; deleted != existed {
					t.Fatalf("step %d: Delete=%v existed=%v", step, deleted, existed)
				}
				delete(model, key)
			default:
				got, ok := m.Get(tx, key)
				want, existed := model[key]
				if ok != existed || (ok && got != want) {
					t.Fatalf("step %d: Get=(%d,%v) want (%d,%v)", step, got, ok, want, existed)
				}
			}
			if m.Len(tx) != len(model) {
				t.Fatalf("step %d: Len=%d model=%d", step, m.Len(tx), len(model))
			}
		})
	}
	run(t, rt, func(tx *stm.Tx) {
		count := 0
		m.Range(tx, func(k int64, v int) bool {
			if want, ok := model[k]; !ok || want != v {
				t.Fatalf("Range entry (%d,%d) not in model", k, v)
			}
			count++
			return true
		})
		if count != len(model) {
			t.Fatalf("Range visited %d, want %d", count, len(model))
		}
	})
}

// TestHashMapUpdateWalksOnce pins Update's one walk through the exact
// read-set count: on either engine, an update of a key at chain depth p
// records p+2 reads (bucket, p next links, value) and one write, and an
// update of an absent key inserts it and bumps Len.
func TestHashMapUpdateWalksOnce(t *testing.T) {
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := stm.New(stm.Config{Algorithm: algo})
			m := NewHashMap[int](1)
			var chain []int64 // keys of one bucket, in insertion order
			for k := int64(0); len(chain) < 5; k++ {
				if m.hash(k) == m.hash(0) {
					chain = append(chain, k)
					run(t, rt, func(tx *stm.Tx) { m.Put(tx, k, 10) })
				}
			}
			inc := func(v int, ok bool) int {
				if !ok {
					return -1
				}
				return v + 1
			}
			for i, key := range chain {
				depth := uint64(len(chain) - 1 - i) // Put prepends
				rt.ResetStats()
				run(t, rt, func(tx *stm.Tx) {
					if m.Update(tx, key, inc) {
						t.Errorf("Update(%d) inserted a present key", key)
					}
				})
				if s := rt.Stats(); s.ReadSetSum != depth+2 || s.WriteSetSum != 1 {
					t.Errorf("key at depth %d: %d reads, %d writes; want %d and 1", depth, s.ReadSetSum, s.WriteSetSum, depth+2)
				}
			}
			absent := int64(-1)
			run(t, rt, func(tx *stm.Tx) {
				if !m.Update(tx, absent, inc) {
					t.Error("Update of an absent key did not insert")
				}
			})
			run(t, rt, func(tx *stm.Tx) {
				if n := m.Len(tx); n != len(chain)+1 {
					t.Errorf("Len = %d, want %d", n, len(chain)+1)
				}
				for _, key := range chain {
					if v, _ := m.Get(tx, key); v != 11 {
						t.Errorf("Get(%d) = %d, want 11", key, v)
					}
				}
				if v, ok := m.Get(tx, absent); !ok || v != -1 {
					t.Errorf("Get(absent) = %d,%v, want -1,true", v, ok)
				}
			})
		})
	}
}

func TestHashMapConcurrentDisjoint(t *testing.T) {
	rt := stm.New(stm.Config{})
	m := NewHashMap[int](64)
	const workers = 5
	const n = 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := int64(w*n + i)
				if err := rt.Atomic(func(tx *stm.Tx) error {
					m.Put(tx, key, int(key)*2)
					return nil
				}); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	run(t, rt, func(tx *stm.Tx) {
		if m.Len(tx) != workers*n {
			t.Fatalf("Len = %d, want %d", m.Len(tx), workers*n)
		}
		for k := int64(0); k < workers*n; k++ {
			if v, ok := m.Get(tx, k); !ok || v != int(k)*2 {
				t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
			}
		}
	})
}

func TestSortedListBasic(t *testing.T) {
	rt := stm.New(stm.Config{})
	l := NewSortedList[string]()
	run(t, rt, func(tx *stm.Tx) {
		for _, k := range []int64{5, 1, 3, 2, 4} {
			if !l.Insert(tx, k, "v") {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if l.Insert(tx, 3, "dup") {
			t.Error("duplicate Insert succeeded")
		}
		keys := l.Keys(tx)
		want := []int64{1, 2, 3, 4, 5}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("Keys = %v, want %v", keys, want)
			}
		}
		if !l.Update(tx, 3, "three") {
			t.Error("Update of present key failed")
		}
		if l.Update(tx, 9, "none") {
			t.Error("Update of absent key succeeded")
		}
		if v, ok := l.Get(tx, 3); !ok || v != "three" {
			t.Errorf("Get(3) = %q,%v", v, ok)
		}
		if !l.Remove(tx, 1) || !l.Remove(tx, 5) || l.Remove(tx, 7) {
			t.Error("Remove semantics wrong")
		}
		if l.Len(tx) != 3 {
			t.Errorf("Len = %d, want 3", l.Len(tx))
		}
	})
}

// TestSortedListQuickSortedness property: after arbitrary inserts and
// removes, keys are strictly ascending and match a set model.
func TestSortedListQuickSortedness(t *testing.T) {
	f := func(ins []int8, del []int8) bool {
		rt := stm.New(stm.Config{})
		l := NewSortedList[struct{}]()
		model := map[int64]struct{}{}
		good := true
		err := rt.Atomic(func(tx *stm.Tx) error {
			for _, k := range ins {
				l.Insert(tx, int64(k), struct{}{})
				model[int64(k)] = struct{}{}
			}
			for _, k := range del {
				l.Remove(tx, int64(k))
				delete(model, int64(k))
			}
			keys := l.Keys(tx)
			if len(keys) != len(model) {
				good = false
				return nil
			}
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					good = false
					return nil
				}
			}
			for _, k := range keys {
				if _, ok := model[k]; !ok {
					good = false
					return nil
				}
			}
			return nil
		})
		return err == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedRangeHelpersAtomicRO exercises every ordered-scan helper on the
// blink map and the red-black tree inside read-only transactions, on both
// engines: AtomicRO is the path the ordered workloads actually serve scans
// from, and it validates reads differently per engine (TL2 version checks vs
// NOrec value comparison), so write-path tests alone don't cover it.
func TestOrderedRangeHelpersAtomicRO(t *testing.T) {
	keys := []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		rt := stm.New(stm.Config{Algorithm: algo})
		bm := blink.NewMap[int64]()
		rb := NewRBTree[int64]()
		run(t, rt, func(tx *stm.Tx) {
			for _, k := range keys {
				bm.Put(tx, k, k*10)
				rb.Put(tx, k, k*10)
			}
		})
		if err := rt.AtomicRO(func(tx *stm.Tx) error {
			// Full iteration, both containers, same ascending order.
			var got []int64
			bm.Range(tx, func(k, v int64) bool {
				if v != k*10 {
					t.Fatalf("blink.Map.Range value for %d = %d", k, v)
				}
				got = append(got, k)
				return true
			})
			var rbGot []int64
			rb.Range(tx, func(k, v int64) bool {
				rbGot = append(rbGot, k)
				return true
			})
			if len(got) != len(keys) || len(rbGot) != len(keys) {
				t.Fatalf("Range lengths: blink %d, rbtree %d, want %d", len(got), len(rbGot), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i] || rbGot[i] != keys[i] {
					t.Fatalf("Range order: blink %v, rbtree %v, want %v", got, rbGot, keys)
				}
			}
			// Keys helpers agree with Range.
			if rk := rb.Keys(tx); len(rk) != len(keys) {
				t.Fatalf("Keys length: %d", len(rk))
			}
			// Bounded windows: interior, exact-endpoint, empty, and
			// past-the-end windows must agree across both containers.
			for _, w := range [][2]int64{{5, 19}, {4, 18}, {0, 2}, {24, 28}, {30, 99}, {-5, 100}} {
				var sw, rw []int64
				bm.RangeBetween(tx, w[0], w[1], func(k, v int64) bool {
					sw = append(sw, k)
					return true
				})
				rb.RangeBetween(tx, w[0], w[1], func(k, v int64) bool {
					rw = append(rw, k)
					return true
				})
				var want []int64
				for _, k := range keys {
					if k >= w[0] && k <= w[1] {
						want = append(want, k)
					}
				}
				if len(sw) != len(want) || len(rw) != len(want) {
					t.Fatalf("window %v: blink %v, rbtree %v, want %v", w, sw, rw, want)
				}
				for i := range want {
					if sw[i] != want[i] || rw[i] != want[i] {
						t.Fatalf("window %v: blink %v, rbtree %v, want %v", w, sw, rw, want)
					}
				}
			}
			// Early termination stops the walk without visiting further keys.
			n := 0
			bm.RangeBetween(tx, 0, 100, func(k, v int64) bool { n++; return n < 3 })
			if n != 3 {
				t.Fatalf("blink early stop visited %d", n)
			}
			n = 0
			rb.RangeBetween(tx, 0, 100, func(k, v int64) bool { n++; return n < 3 })
			if n != 3 {
				t.Fatalf("rbtree early stop visited %d", n)
			}
			// Navigation helpers on the tree.
			if k, _, ok := rb.Min(tx); !ok || k != 2 {
				t.Fatalf("Min = %d,%v", k, ok)
			}
			if k, _, ok := rb.Max(tx); !ok || k != 29 {
				t.Fatalf("Max = %d,%v", k, ok)
			}
			if k, _, ok := rb.Ceiling(tx, 6); !ok || k != 7 {
				t.Fatalf("Ceiling(6) = %d,%v", k, ok)
			}
			if k, _, ok := rb.Floor(tx, 6); !ok || k != 5 {
				t.Fatalf("Floor(6) = %d,%v", k, ok)
			}
			if _, _, ok := rb.Ceiling(tx, 30); ok {
				t.Fatal("Ceiling past max should miss")
			}
			if _, _, ok := rb.Floor(tx, 1); ok {
				t.Fatal("Floor before min should miss")
			}
			return nil
		}); err != nil {
			t.Fatalf("AtomicRO(%v): %v", algo, err)
		}
	}
}

// TestOrderedScanAgreement is the scan property test: arbitrary
// insert/delete histories applied identically to the red-black tree and the
// blink map must yield identical bounded scans from read-only transactions,
// for arbitrary windows. Any divergence in ordering, boundary handling, or
// deletion visibility between the ordered containers fails here.
func TestOrderedScanAgreement(t *testing.T) {
	f := func(ins []uint8, del []uint8, loRaw, width uint8) bool {
		rt := stm.New(stm.Config{})
		rb := NewRBTree[int64]()
		bm := blink.NewMap[int64]()
		model := map[int64]int64{}
		err := rt.Atomic(func(tx *stm.Tx) error {
			for i, k := range ins {
				key, val := int64(k%64), int64(i)
				rb.Put(tx, key, val)
				bm.Put(tx, key, val)
				model[key] = val
			}
			for _, k := range del {
				key := int64(k % 64)
				a, b := rb.Delete(tx, key), bm.Delete(tx, key)
				if a != b {
					t.Fatalf("Delete(%d) disagrees: rbtree %v, blink %v", key, a, b)
				}
				delete(model, key)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		lo := int64(loRaw % 64)
		hi := lo + int64(width%16)
		var want []int64
		for k := range model {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		good := true
		err = rt.AtomicRO(func(tx *stm.Tx) error {
			collect := func(scan func(func(k, v int64) bool)) []int64 {
				var out []int64
				scan(func(k, v int64) bool {
					if model[k] != v {
						good = false
					}
					out = append(out, k)
					return true
				})
				return out
			}
			got := [][]int64{
				collect(func(fn func(k, v int64) bool) { rb.RangeBetween(tx, lo, hi, fn) }),
				collect(func(fn func(k, v int64) bool) { bm.RangeBetween(tx, lo, hi, fn) }),
			}
			for _, g := range got {
				if len(g) != len(want) {
					good = false
					return nil
				}
				for i := range want {
					if g[i] != want[i] {
						good = false
						return nil
					}
				}
			}
			return nil
		})
		return err == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	rt := stm.New(stm.Config{})
	q := NewQueue[int]()
	run(t, rt, func(tx *stm.Tx) {
		if !q.Empty(tx) {
			t.Error("new queue not empty")
		}
		if _, ok := q.Pop(tx); ok {
			t.Error("Pop from empty queue succeeded")
		}
		for i := 0; i < 10; i++ {
			q.Push(tx, i)
		}
		if v, ok := q.Peek(tx); !ok || v != 0 {
			t.Errorf("Peek = %d,%v", v, ok)
		}
		for i := 0; i < 10; i++ {
			v, ok := q.Pop(tx)
			if !ok || v != i {
				t.Fatalf("Pop #%d = %d,%v", i, v, ok)
			}
		}
		if !q.Empty(tx) || q.Len(tx) != 0 {
			t.Error("queue not empty after draining")
		}
		// Push after drain must work (tail reset path).
		q.Push(tx, 99)
		if v, ok := q.Pop(tx); !ok || v != 99 {
			t.Errorf("Pop after drain = %d,%v", v, ok)
		}
	})
}

// TestQueueConcurrentProducersConsumers checks that every produced element
// is consumed exactly once.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	rt := stm.New(stm.Config{})
	q := NewQueue[int]()
	const producers = 3
	const consumers = 3
	const perProducer = 100
	total := producers * perProducer

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				if err := rt.Atomic(func(tx *stm.Tx) error {
					q.Push(tx, v)
					return nil
				}); err != nil {
					t.Errorf("Push: %v", err)
				}
			}
		}(p)
	}

	var mu sync.Mutex
	seen := make(map[int]int)
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				var v int
				var ok bool
				if err := rt.Atomic(func(tx *stm.Tx) error {
					v, ok = q.Pop(tx)
					return nil
				}); err != nil {
					t.Errorf("Pop: %v", err)
					return
				}
				if ok {
					mu.Lock()
					seen[v]++
					n := len(seen)
					mu.Unlock()
					if n == total {
						close(done)
					}
					continue
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	<-done
	cwg.Wait()
	if len(seen) != total {
		t.Fatalf("consumed %d distinct values, want %d", len(seen), total)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d consumed %d times", v, n)
		}
	}
}
