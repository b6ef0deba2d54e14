package container

import (
	"rubic/internal/stm"
)

// hentry is a singly linked chain node of a HashMap bucket. Key is immutable;
// value and next pointer are transactional and live inside the node, on the
// lines a reader following the chain has already fetched.
type hentry[V any] struct {
	key  int64
	val  stm.Var[V]
	next stm.Var[*hentry[V]]
}

// newEntry returns a node that is private until the bucket write linking it
// commits, so plain Sets are safe; a nil next is the zero Var already.
func newEntry[V any](key int64, val V, next *hentry[V]) *hentry[V] {
	e := &hentry[V]{key: key}
	e.val.Set(val)
	if next != nil {
		e.next.Set(next)
	}
	return e
}

// HashMap is a transactional fixed-capacity chained hash table from int64
// keys to V. The bucket count is fixed at construction (STAMP's hashtable is
// likewise non-resizing), so transactions only conflict within a bucket
// chain. It backs Intruder's fragment dictionary.
type HashMap[V any] struct {
	buckets []stm.Var[*hentry[V]] // zero Vars: empty chains
	size    stm.Var[int]
	mask    uint64
}

// NewHashMap returns a map with at least minBuckets buckets (rounded up to a
// power of two, minimum 16).
func NewHashMap[V any](minBuckets int) *HashMap[V] {
	n := 16
	for n < minBuckets {
		n <<= 1
	}
	return &HashMap[V]{
		buckets: make([]stm.Var[*hentry[V]], n),
		mask:    uint64(n - 1),
	}
}

// hash mixes the key (splitmix64 finalizer) so sequential keys spread.
func (m *HashMap[V]) hash(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x & m.mask
}

// Len returns the number of entries.
func (m *HashMap[V]) Len(tx *stm.Tx) int { return m.size.Read(tx) }

// Get returns the value stored under key.
func (m *HashMap[V]) Get(tx *stm.Tx, key int64) (V, bool) {
	e := m.buckets[m.hash(key)].Read(tx)
	for e != nil {
		if e.key == key {
			return e.val.Read(tx), true
		}
		e = e.next.Read(tx)
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (m *HashMap[V]) Contains(tx *stm.Tx, key int64) bool {
	_, ok := m.Get(tx, key)
	return ok
}

// Put inserts or updates key and reports whether a new entry was created.
func (m *HashMap[V]) Put(tx *stm.Tx, key int64, val V) bool {
	head := &m.buckets[m.hash(key)]
	e := head.Read(tx)
	for n := e; n != nil; n = n.next.Read(tx) {
		if n.key == key {
			n.val.Write(tx, val)
			return false
		}
	}
	head.Write(tx, newEntry(key, val, e))
	m.size.Write(tx, m.size.Read(tx)+1)
	return true
}

// Update stores fn(current value, true) under key, or inserts fn(zero,
// false) when key is absent, and reports whether an entry was created: the
// read-modify-write of Get then Put in one walk of the chain, so a key at
// depth p costs p+2 reads instead of 2p+3.
func (m *HashMap[V]) Update(tx *stm.Tx, key int64, fn func(cur V, ok bool) V) bool {
	head := &m.buckets[m.hash(key)]
	e := head.Read(tx)
	for n := e; n != nil; n = n.next.Read(tx) {
		if n.key == key {
			n.val.Write(tx, fn(n.val.Read(tx), true))
			return false
		}
	}
	var zero V
	head.Write(tx, newEntry(key, fn(zero, false), e))
	m.size.Write(tx, m.size.Read(tx)+1)
	return true
}

// PutIfAbsent inserts key only when missing; it returns the resident value
// and whether an insertion happened.
func (m *HashMap[V]) PutIfAbsent(tx *stm.Tx, key int64, val V) (V, bool) {
	head := &m.buckets[m.hash(key)]
	e := head.Read(tx)
	for n := e; n != nil; n = n.next.Read(tx) {
		if n.key == key {
			return n.val.Read(tx), false
		}
	}
	head.Write(tx, newEntry(key, val, e))
	m.size.Write(tx, m.size.Read(tx)+1)
	return val, true
}

// EntryVar returns the transactional variable holding key's value, or nil
// when the key is absent. Chain nodes never change their val Var once
// inserted (updates write through it), so the returned Var stays the live
// storage for the key until the entry is deleted — which is what durable
// registration needs: a stable location to bind a WAL id to.
func (m *HashMap[V]) EntryVar(tx *stm.Tx, key int64) *stm.Var[V] {
	e := m.buckets[m.hash(key)].Read(tx)
	for e != nil {
		if e.key == key {
			return &e.val
		}
		e = e.next.Read(tx)
	}
	return nil
}

// Delete removes key and reports whether it was present.
func (m *HashMap[V]) Delete(tx *stm.Tx, key int64) bool {
	head := &m.buckets[m.hash(key)]
	prev := (*hentry[V])(nil)
	e := head.Read(tx)
	for e != nil {
		next := e.next.Read(tx)
		if e.key == key {
			if prev == nil {
				head.Write(tx, next)
			} else {
				prev.next.Write(tx, next)
			}
			m.size.Write(tx, m.size.Read(tx)-1)
			return true
		}
		prev, e = e, next
	}
	return false
}

// Range calls fn for every entry (bucket order, chain order) until fn
// returns false.
func (m *HashMap[V]) Range(tx *stm.Tx, fn func(key int64, val V) bool) {
	for i := range m.buckets {
		for e := m.buckets[i].Read(tx); e != nil; e = e.next.Read(tx) {
			if !fn(e.key, e.val.Read(tx)) {
				return
			}
		}
	}
}
