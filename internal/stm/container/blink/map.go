// Package blink provides Map, a B-Link-tree ordered index held in STM Vars:
// every mutation is a transaction and serializes with any other transactional
// state, while read-only navigation may skip the transaction altogether
// (LookupFast, ScanFast).
//
// The structure follows Lehman & Yao: every node carries an exclusive upper
// bound (high) and a right-sibling link (next); splits move entries to a new
// right sibling and deletes never merge, so a reader that lands on a stale node
// recovers by chasing right until its key is back in range. Readers therefore
// need only per-node atomicity, which immutable copy-on-write node snapshots
// give them: a node is one Var holding a pointer to a snapshot nobody modifies.
//
// Keys span all of int64 except math.MaxInt64, which is the +infinity
// sentinel in the rightmost node of every level.
package blink

import (
	"fmt"
	"math"

	"rubic/internal/stm"
)

// order is the per-node entry capacity. 32 keeps a node's key array within a
// few cache lines while holding the tree to 3 levels past a million keys.
const order = 32

// maxHeight bounds the writer descent stack; order^maxHeight key capacity
// makes overflow unreachable.
const maxHeight = 16

// infKey is the exclusive-upper-bound sentinel of rightmost nodes. It can
// never be bound, and no node lies to the right of the one whose bound it is,
// so every entry point answers for it before descending.
const infKey = math.MaxInt64

// sizeShards spreads the Map's element count over several Vars so
// concurrent inserts to distant keys do not all serialize on one counter
// location. Len sums the shards; a key's count lives in the shard its hash
// picks, so the sum is exact.
const sizeShards = 8

// mdata is one immutable node snapshot of the STM Map. A mutation replaces
// the owning mnode's whole snapshot (copy-on-write); nothing in a published
// mdata is ever modified, which is what makes the Peek-based fast path
// sound: any snapshot a lock-free reader captures is internally consistent,
// and a snapshot that a split has since narrowed still links to the sibling
// holding the keys it lost, so staleness is recovered by the right-chase.
type mdata[V any] struct {
	leaf bool
	high int64 // exclusive upper bound; infKey on the rightmost node
	next *mnode[V]
	keys []int64
	vals []V         // leaf only
	kids []*mnode[V] // branch only; kids[i] covers keys < keys[i]
}

// mnode is one stable node identity: splits and rewrites swap its snapshot,
// never the mnode itself, so pointers captured by concurrent readers stay
// valid for the life of the map.
type mnode[V any] struct {
	d stm.Var[*mdata[V]]
}

// newMnode returns a node holding d. It is private until the write that
// links it commits, so a plain Set is safe. A node's snapshot is never nil.
func newMnode[V any](d *mdata[V]) *mnode[V] {
	nd := &mnode[V]{}
	nd.d.Set(d)
	return nd
}

// Map is the B-Link tree as a fully transactional container: every mutation
// runs under STM and serializes with any other transactional state, while
// read-only navigation can skip transaction bookkeeping entirely through
// LookupFast/ScanFast (per-Var consistent sampling plus right-chasing —
// the hybrid fast path). Inside a transaction, use Get/Range: they record
// reads and stay serializable with the transaction's other operations.
type Map[V any] struct {
	root stm.Var[*mnode[V]]
	size [sizeShards]stm.Var[int]
}

// NewMap returns an empty transactional B-Link map.
func NewMap[V any]() *Map[V] {
	m := &Map[V]{}
	m.root.Set(newMnode(&mdata[V]{leaf: true, high: infKey}))
	return m
}

func sizeShard(key int64) int {
	return int((uint64(key) * 0x9E3779B97F4A7C15 >> 61) & (sizeShards - 1))
}

// Get returns the value bound to key as seen by tx.
func (m *Map[V]) Get(tx *stm.Tx, key int64) (V, bool) {
	var zero V
	if key == infKey {
		return zero, false
	}
	nd := m.root.Read(tx)
	for {
		d := nd.d.Read(tx)
		if key >= d.high {
			nd = d.next
			continue
		}
		if !d.leaf {
			nd = d.kids[branchPos(d.keys, key)]
			continue
		}
		for i, k := range d.keys {
			if k == key {
				return d.vals[i], true
			}
			if k > key {
				break
			}
		}
		return zero, false
	}
}

// branchPos returns the index of the child covering key: the first entry
// whose (exclusive) bound exceeds it.
func branchPos(keys []int64, key int64) int {
	for i, k := range keys {
		if key < k {
			return i
		}
	}
	return len(keys) - 1
}

// Put binds key to val, returning true when the key was absent.
func (m *Map[V]) Put(tx *stm.Tx, key int64, val V) bool {
	if key == infKey {
		panic("blink: math.MaxInt64 is the +infinity sentinel and cannot be a key")
	}
	var path [maxHeight]*mnode[V]
	depth := 0
	nd := m.root.Read(tx)
	var d *mdata[V]
	for {
		d = nd.d.Read(tx)
		if key >= d.high {
			nd = d.next
			continue
		}
		if d.leaf {
			break
		}
		path[depth] = nd
		depth++
		nd = d.kids[branchPos(d.keys, key)]
	}
	// Leaf rewrite: in-place value update or sorted insert.
	pos := len(d.keys)
	for i, k := range d.keys {
		if k == key {
			vals := append([]V(nil), d.vals...)
			vals[i] = val
			nd.d.Write(tx, &mdata[V]{leaf: true, high: d.high, next: d.next, keys: d.keys, vals: vals})
			return false
		}
		if key < k {
			pos = i
			break
		}
	}
	keys := make([]int64, 0, len(d.keys)+1)
	vals := make([]V, 0, len(d.vals)+1)
	keys = append(append(append(keys, d.keys[:pos]...), key), d.keys[pos:]...)
	vals = append(append(append(vals, d.vals[:pos]...), val), d.vals[pos:]...)
	if len(keys) <= order {
		nd.d.Write(tx, &mdata[V]{leaf: true, high: d.high, next: d.next, keys: keys, vals: vals})
	} else {
		h := (order + 1) / 2
		right := newMnode(&mdata[V]{
			leaf: true, high: d.high, next: d.next,
			keys: keys[h:], vals: vals[h:],
		})
		nd.d.Write(tx, &mdata[V]{leaf: true, high: keys[h], next: right, keys: keys[:h], vals: vals[:h]})
		m.insertUp(tx, &path, depth, nd, keys[h], right, d.high)
	}
	sz := &m.size[sizeShard(key)]
	sz.Write(tx, sz.Read(tx)+1)
	return true
}

// insertUp links a freshly split node's right sibling into the parent
// level, splitting upward as needed. The whole split commits atomically with
// the triggering mutation, so the transactional view never observes a
// half-propagated split; the fast path can — it may Peek a parent from before
// the commit and a child from after it — which is what its right-chase is for.
func (m *Map[V]) insertUp(tx *stm.Tx, path *[maxHeight]*mnode[V], depth int, child *mnode[V], childHigh int64, sib *mnode[V], sibHigh int64) {
	for {
		if depth == 0 {
			// child was the root: grow a level.
			m.root.Write(tx, newMnode(&mdata[V]{
				high: infKey,
				keys: []int64{childHigh, sibHigh},
				kids: []*mnode[V]{child, sib},
			}))
			return
		}
		depth--
		parent := path[depth]
		d := parent.d.Read(tx)
		j := -1
		for i, c := range d.kids {
			if c == child {
				j = i
				break
			}
		}
		if j < 0 {
			// The transactional view is always split-consistent, so the
			// parent recorded on the descent path must still hold the child.
			panic("blink: transactional split lost its parent entry")
		}
		keys := make([]int64, 0, len(d.keys)+1)
		kids := make([]*mnode[V], 0, len(d.kids)+1)
		keys = append(append(append(keys, d.keys[:j]...), childHigh, sibHigh), d.keys[j+1:]...)
		kids = append(append(append(kids, d.kids[:j+1]...), sib), d.kids[j+1:]...)
		if len(keys) <= order {
			parent.d.Write(tx, &mdata[V]{high: d.high, next: d.next, keys: keys, kids: kids})
			return
		}
		h := (order + 1) / 2
		right := newMnode(&mdata[V]{
			high: d.high, next: d.next,
			keys: keys[h:], kids: kids[h:],
		})
		parent.d.Write(tx, &mdata[V]{high: keys[h-1], next: right, keys: keys[:h], kids: kids[:h]})
		child, childHigh, sib, sibHigh = parent, keys[h-1], right, d.high
	}
}

// Delete unbinds key, reporting whether it was present. Nodes are never
// merged: an emptied leaf stays linked with its bound, so a reader holding a
// stale pointer to it still finds its way right.
func (m *Map[V]) Delete(tx *stm.Tx, key int64) bool {
	if key == infKey {
		return false
	}
	nd := m.root.Read(tx)
	for {
		d := nd.d.Read(tx)
		if key >= d.high {
			nd = d.next
			continue
		}
		if !d.leaf {
			nd = d.kids[branchPos(d.keys, key)]
			continue
		}
		for i, k := range d.keys {
			if k > key {
				return false
			}
			if k != key {
				continue
			}
			keys := make([]int64, 0, len(d.keys)-1)
			vals := make([]V, 0, len(d.vals)-1)
			keys = append(append(keys, d.keys[:i]...), d.keys[i+1:]...)
			vals = append(append(vals, d.vals[:i]...), d.vals[i+1:]...)
			nd.d.Write(tx, &mdata[V]{leaf: true, high: d.high, next: d.next, keys: keys, vals: vals})
			sz := &m.size[sizeShard(key)]
			sz.Write(tx, sz.Read(tx)-1)
			return true
		}
		return false
	}
}

// Len reports the number of keys as seen by tx.
func (m *Map[V]) Len(tx *stm.Tx) int {
	total := 0
	for i := range m.size {
		total += m.size[i].Read(tx)
	}
	return total
}

// Range calls fn for every key in ascending order until fn returns false.
func (m *Map[V]) Range(tx *stm.Tx, fn func(key int64, val V) bool) {
	m.RangeBetween(tx, math.MinInt64, infKey-1, fn)
}

// RangeBetween calls fn for each key in [lo, hi] in ascending order until fn
// returns false. The walk reads through tx, so under Atomic/AtomicRO the
// visited snapshot is serializable with every other transactional access.
func (m *Map[V]) RangeBetween(tx *stm.Tx, lo, hi int64, fn func(key int64, val V) bool) {
	if hi < lo || lo == infKey {
		return
	}
	nd := m.root.Read(tx)
	for {
		d := nd.d.Read(tx)
		if lo >= d.high {
			nd = d.next
			continue
		}
		if !d.leaf {
			nd = d.kids[branchPos(d.keys, lo)]
			continue
		}
		for {
			for i, k := range d.keys {
				if k < lo || k > hi {
					continue
				}
				if !fn(k, d.vals[i]) {
					return
				}
			}
			if d.high > hi || d.next == nil {
				return
			}
			nd = d.next
			d = nd.d.Read(tx)
		}
	}
}

// LookupFast is the hybrid fast path: a lock-free lookup that skips
// transaction bookkeeping entirely. Each node snapshot is sampled
// consistently (Var.Peek's seqlock-style meta/value/meta protocol) and
// staleness across samples is absorbed by right-chasing, so the result is
// the value some committed state bound to key — linearized at the final
// leaf sample. Use it outside transactions; inside one, use Get, which
// participates in validation.
//
//rubic:noalloc
func (m *Map[V]) LookupFast(key int64) (V, bool) {
	var zero V
	if key == infKey {
		return zero, false
	}
	nd := m.root.Peek()
	for {
		d := nd.d.Peek()
		if key >= d.high {
			nd = d.next
			continue
		}
		if !d.leaf {
			nd = d.kids[branchPos(d.keys, key)]
			continue
		}
		for i, k := range d.keys {
			if k == key {
				return d.vals[i], true
			}
			if k > key {
				break
			}
		}
		return zero, false
	}
}

// ScanFast streams [lo, hi] in ascending order without a transaction. Each
// leaf snapshot is internally consistent; across leaves the scan is weakly
// consistent (it observes each leaf at its own instant), the standard B-Link
// contract.
//
//rubic:noalloc
func (m *Map[V]) ScanFast(lo, hi int64, fn func(key int64, val V) bool) {
	if hi < lo || lo == infKey {
		return
	}
	nd := m.root.Peek()
	for {
		d := nd.d.Peek()
		if lo >= d.high {
			nd = d.next
			continue
		}
		if !d.leaf {
			nd = d.kids[branchPos(d.keys, lo)]
			continue
		}
		for {
			for i, k := range d.keys {
				if k < lo || k > hi {
					continue
				}
				if !fn(k, d.vals[i]) {
					return
				}
			}
			if d.high > hi || d.next == nil {
				return
			}
			nd = d.next
			d = nd.d.Peek()
		}
	}
}

// CheckInvariants verifies the structural invariants of the transactional
// view: sorted bounded keys, exact separators, contiguous ranges ending at
// +infinity, and a size-shard sum matching the leaf population.
func (m *Map[V]) CheckInvariants(tx *stm.Tx) error {
	level := m.root.Read(tx)
	depth := 0
	for {
		d := level.d.Read(tx)
		prevHigh := int64(math.MinInt64)
		total := 0
		for nd := level; nd != nil; {
			nd2 := nd.d.Read(tx)
			if len(nd2.keys) > order {
				return fmt.Errorf("blink: node with %d entries exceeds order %d", len(nd2.keys), order)
			}
			last := int64(math.MinInt64)
			for i, k := range nd2.keys {
				if i > 0 && k <= last {
					return fmt.Errorf("blink: unsorted separators %d <= %d", k, last)
				}
				last = k
				if nd2.leaf {
					if k >= nd2.high || k < prevHigh {
						return fmt.Errorf("blink: leaf key %d outside [%d, %d)", k, prevHigh, nd2.high)
					}
					total++
				} else {
					cd := nd2.kids[i].d.Read(tx)
					if cd.high != k {
						return fmt.Errorf("blink: separator %d != child bound %d", k, cd.high)
					}
				}
			}
			if !nd2.leaf {
				if len(nd2.keys) == 0 {
					return fmt.Errorf("blink: empty branch node")
				}
				if nd2.keys[len(nd2.keys)-1] != nd2.high {
					return fmt.Errorf("blink: branch bound %d != last separator %d", nd2.high, nd2.keys[len(nd2.keys)-1])
				}
			}
			if nd2.next == nil && nd2.high != infKey {
				return fmt.Errorf("blink: rightmost node ends at %d, not +inf", nd2.high)
			}
			prevHigh = nd2.high
			nd = nd2.next
		}
		if d.leaf {
			if got := m.Len(tx); total != got {
				return fmt.Errorf("blink: leaf walk found %d keys, Len reports %d", total, got)
			}
			return nil
		}
		depth++
		if depth > maxHeight {
			return fmt.Errorf("blink: depth exceeds %d — cycle?", maxHeight)
		}
		level = d.kids[0]
	}
}
