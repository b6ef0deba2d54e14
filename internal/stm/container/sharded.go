package container

import (
	"rubic/internal/stm"
)

// ShardedHashMap partitions a HashMap across the shards of an
// stm.ShardedRuntime: each shard owns an independent HashMap whose Vars are
// only ever accessed through that shard's Runtime, so operations on keys in
// different shards share no commit clock, lock word, or sequence lock. This
// is the container-level face of range sharding (DESIGN.md §14): the
// operation API is self-routing — each call runs its own single-shard
// transaction on the owning shard — and multi-key operations that span
// shards (Len, Range, bulk moves) go through the cross-shard commit.
//
// Compared with a single HashMap under one Runtime, the sharded form trades
// snapshot granularity for commit-path independence: two Puts on different
// shards never serialize on a shared clock word, which is what the parallel
// benchmarks need to scale past the single-counter ceiling.
type ShardedHashMap[V any] struct {
	sr     *stm.ShardedRuntime
	shards []*HashMap[V]
}

// NewShardedHashMap builds one HashMap of at least minBucketsPerShard
// buckets per shard of sr.
func NewShardedHashMap[V any](sr *stm.ShardedRuntime, minBucketsPerShard int) *ShardedHashMap[V] {
	m := &ShardedHashMap[V]{
		sr:     sr,
		shards: make([]*HashMap[V], sr.Shards()),
	}
	for i := range m.shards {
		m.shards[i] = NewHashMap[V](minBucketsPerShard)
	}
	return m
}

// Runtime returns the backing sharded runtime.
func (m *ShardedHashMap[V]) Runtime() *stm.ShardedRuntime { return m.sr }

// ShardFor maps key to its owning shard index.
//
//rubic:noalloc
func (m *ShardedHashMap[V]) ShardFor(key int64) int { return m.sr.ShardFor(uint64(key)) }

// OnShard exposes shard i's underlying HashMap for composing into a larger
// transaction. The caller owns the routing obligation: every access must run
// under shard i's Runtime (sr.Shard(i) or a CrossTx sub-transaction on i).
func (m *ShardedHashMap[V]) OnShard(i int) *HashMap[V] { return m.shards[i] }

// Get looks key up in its own single-shard read-only transaction.
func (m *ShardedHashMap[V]) Get(key int64) (val V, ok bool, err error) {
	i := m.ShardFor(key)
	err = m.sr.Shard(i).AtomicRO(func(tx *stm.Tx) error {
		val, ok = m.shards[i].Get(tx, key)
		return nil
	})
	return val, ok, err
}

// Contains reports key's presence via a single-shard read-only transaction.
func (m *ShardedHashMap[V]) Contains(key int64) (bool, error) {
	_, ok, err := m.Get(key)
	return ok, err
}

// Put inserts or updates key in its own single-shard transaction and
// reports whether a new entry was created.
func (m *ShardedHashMap[V]) Put(key int64, val V) (added bool, err error) {
	i := m.ShardFor(key)
	err = m.sr.Shard(i).Atomic(func(tx *stm.Tx) error {
		added = m.shards[i].Put(tx, key, val)
		return nil
	})
	return added, err
}

// Delete removes key in its own single-shard transaction and reports
// whether it was present.
func (m *ShardedHashMap[V]) Delete(key int64) (removed bool, err error) {
	i := m.ShardFor(key)
	err = m.sr.Shard(i).Atomic(func(tx *stm.Tx) error {
		removed = m.shards[i].Delete(tx, key)
		return nil
	})
	return removed, err
}

// Update applies fn to key's current value (zero if absent) inside key's
// shard transaction and stores the result — the read-modify-write form the
// keyed workloads use (HashMap.Update).
func (m *ShardedHashMap[V]) Update(key int64, fn func(cur V, ok bool) V) error {
	i := m.ShardFor(key)
	return m.sr.Shard(i).Atomic(func(tx *stm.Tx) error {
		m.shards[i].Update(tx, key, fn)
		return nil
	})
}

// Len counts all entries in one cross-shard transaction: an exact snapshot
// over every shard at a single commit point.
func (m *ShardedHashMap[V]) Len() (int, error) {
	n := 0
	err := m.sr.AtomicAcross(func(cx *stm.CrossTx) error {
		n = 0
		for i, hm := range m.shards {
			n += hm.Len(cx.On(i))
		}
		return nil
	})
	return n, err
}

// Range visits every entry under one cross-shard snapshot (shard order,
// bucket order within each shard) until fn returns false. The transaction
// is internal: on a conflict retry fn restarts from the first entry, so fn
// must reset any accumulation it performs (or be idempotent).
func (m *ShardedHashMap[V]) Range(fn func(key int64, val V) bool) error {
	return m.sr.AtomicAcross(func(cx *stm.CrossTx) error {
		for i, hm := range m.shards {
			stopped := false
			hm.Range(cx.On(i), func(k int64, v V) bool {
				if !fn(k, v) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return nil
			}
		}
		return nil
	})
}

// Move atomically deletes key src and inserts its value under dst, even when
// the two keys live on different shards — the canonical cross-shard
// operation. It reports whether src existed (nothing is written otherwise).
func (m *ShardedHashMap[V]) Move(src, dst int64) (moved bool, err error) {
	si, di := m.ShardFor(src), m.ShardFor(dst)
	err = m.sr.AtomicAcross(func(cx *stm.CrossTx) error {
		stx := cx.On(si)
		v, ok := m.shards[si].Get(stx, src)
		moved = ok
		if !ok {
			return nil
		}
		m.shards[si].Delete(stx, src)
		m.shards[di].Put(cx.On(di), dst, v)
		return nil
	})
	return moved, err
}
