package container

import (
	"rubic/internal/stm"
)

// lnode is a sorted-list node; the key is immutable.
type lnode[V any] struct {
	key  int64
	val  stm.Var[V]
	next stm.Var[*lnode[V]]
}

// SortedList is a transactional ascending singly linked list keyed by int64.
// STAMP uses such lists for small per-object collections (e.g. a customer's
// reservation list in Vacation).
type SortedList[V any] struct {
	head stm.Var[*lnode[V]]
	size stm.Var[int]
}

// NewSortedList returns an empty list.
func NewSortedList[V any]() *SortedList[V] {
	return &SortedList[V]{}
}

// Len returns the number of elements.
func (l *SortedList[V]) Len(tx *stm.Tx) int { return l.size.Read(tx) }

// locate returns the first node with key >= k and its predecessor.
func (l *SortedList[V]) locate(tx *stm.Tx, k int64) (prev, cur *lnode[V]) {
	cur = l.head.Read(tx)
	for cur != nil && cur.key < k {
		prev, cur = cur, cur.next.Read(tx)
	}
	return prev, cur
}

// Get returns the value stored under key.
func (l *SortedList[V]) Get(tx *stm.Tx, key int64) (V, bool) {
	_, cur := l.locate(tx, key)
	if cur != nil && cur.key == key {
		return cur.val.Read(tx), true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (l *SortedList[V]) Contains(tx *stm.Tx, key int64) bool {
	_, ok := l.Get(tx, key)
	return ok
}

// Insert adds key if absent and reports whether it was inserted.
func (l *SortedList[V]) Insert(tx *stm.Tx, key int64, val V) bool {
	prev, cur := l.locate(tx, key)
	if cur != nil && cur.key == key {
		return false
	}
	// Private until the link below commits, so plain Sets are safe.
	n := &lnode[V]{key: key}
	n.val.Set(val)
	if cur != nil {
		n.next.Set(cur)
	}
	if prev == nil {
		l.head.Write(tx, n)
	} else {
		prev.next.Write(tx, n)
	}
	l.size.Write(tx, l.size.Read(tx)+1)
	return true
}

// Update stores val under an existing key; it reports whether key existed.
func (l *SortedList[V]) Update(tx *stm.Tx, key int64, val V) bool {
	_, cur := l.locate(tx, key)
	if cur == nil || cur.key != key {
		return false
	}
	cur.val.Write(tx, val)
	return true
}

// Remove deletes key and reports whether it was present.
func (l *SortedList[V]) Remove(tx *stm.Tx, key int64) bool {
	prev, cur := l.locate(tx, key)
	if cur == nil || cur.key != key {
		return false
	}
	next := cur.next.Read(tx)
	if prev == nil {
		l.head.Write(tx, next)
	} else {
		prev.next.Write(tx, next)
	}
	l.size.Write(tx, l.size.Read(tx)-1)
	return true
}

// Range calls fn in ascending key order until fn returns false.
func (l *SortedList[V]) Range(tx *stm.Tx, fn func(key int64, val V) bool) {
	for n := l.head.Read(tx); n != nil; n = n.next.Read(tx) {
		if !fn(n.key, n.val.Read(tx)) {
			return
		}
	}
}

// Keys returns all keys in ascending order.
func (l *SortedList[V]) Keys(tx *stm.Tx) []int64 {
	out := make([]int64, 0, l.size.Read(tx))
	l.Range(tx, func(k int64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
