package container

import (
	"rubic/internal/stm"
)

// qnode is a FIFO queue node.
type qnode[V any] struct {
	val  V
	next stm.Var[*qnode[V]]
}

// Queue is a transactional unbounded FIFO queue. Intruder uses one to pass
// reassembled flows from the decoder stage to the detector stage.
type Queue[V any] struct {
	head stm.Var[*qnode[V]] // oldest element
	tail stm.Var[*qnode[V]] // newest element
	size stm.Var[int]
}

// NewQueue returns an empty queue.
func NewQueue[V any]() *Queue[V] {
	return &Queue[V]{}
}

// Len returns the number of queued elements.
func (q *Queue[V]) Len(tx *stm.Tx) int { return q.size.Read(tx) }

// Empty reports whether the queue has no elements.
func (q *Queue[V]) Empty(tx *stm.Tx) bool { return q.size.Read(tx) == 0 }

// Push appends v at the tail.
func (q *Queue[V]) Push(tx *stm.Tx, v V) {
	n := &qnode[V]{val: v}
	t := q.tail.Read(tx)
	if t == nil {
		q.head.Write(tx, n)
	} else {
		t.next.Write(tx, n)
	}
	q.tail.Write(tx, n)
	q.size.Write(tx, q.size.Read(tx)+1)
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q *Queue[V]) Pop(tx *stm.Tx) (V, bool) {
	h := q.head.Read(tx)
	if h == nil {
		var zero V
		return zero, false
	}
	next := h.next.Read(tx)
	q.head.Write(tx, next)
	if next == nil {
		q.tail.Write(tx, nil)
	}
	q.size.Write(tx, q.size.Read(tx)-1)
	return h.val, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[V]) Peek(tx *stm.Tx) (V, bool) {
	h := q.head.Read(tx)
	if h == nil {
		var zero V
		return zero, false
	}
	return h.val, true
}
