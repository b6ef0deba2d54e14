package load

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"rubic/internal/pool"
	"rubic/internal/stamp"
	"rubic/internal/stm"
	"rubic/internal/stm/container"
	"rubic/internal/wal"
)

// Keyed is implemented by workloads whose operations target a specific key,
// letting the open-loop Server route a Zipf-drawn hot-key mix at them.
// Workloads without it still serve open-loop traffic — each request runs
// one closed-loop task — but the key is ignored and the hot-set skew
// disappears into the workload's own access pattern.
type Keyed interface {
	stamp.Workload
	// ServeKey executes one request against the given key, reporting whether
	// it completed (mirrors pool.Task's contract).
	ServeKey(workerID int, key uint64, rng *rand.Rand) bool
}

// KVConfig parameterizes the KV service workload.
type KVConfig struct {
	// Keys is the key-space size (default 10_000 — the size at which the
	// default Zipf skew yields the 80/20 mix).
	Keys int
	// ReadPct is the percentage of lookups; the rest are transactional
	// increments (default 80, a read-mostly cache shape).
	ReadPct int
	// Buckets is the hashmap's minimum bucket count (default Keys/4).
	Buckets int
}

func (c *KVConfig) defaults() {
	if c.Keys == 0 {
		c.Keys = 10_000
	}
	if c.ReadPct == 0 {
		c.ReadPct = 80
	}
	if c.Buckets == 0 {
		c.Buckets = c.Keys / 4
	}
}

// KV is the service-shaped request workload: point reads and transactional
// increments over a transactional hash map, the Zipfian-benchmark shape
// (StunDB exemplar) mapped onto this repo's STM containers. It implements
// stamp.Workload (so it runs under every existing closed-loop driver and
// the co-location layers) and Keyed (so the open-loop Server can aim the
// hot-key mix at it).
type KV struct {
	cfg KVConfig
	rt  *stm.Runtime
	m   *container.HashMap[int64]

	// increments counts committed add operations — bumped after Atomic
	// returns, never inside the closure, so retries cannot double-count.
	increments atomic.Uint64
	misses     atomic.Uint64
}

// NewKV returns an unpopulated KV workload on the given runtime.
func NewKV(rt *stm.Runtime, cfg KVConfig) *KV {
	cfg.defaults()
	return &KV{cfg: cfg, rt: rt}
}

// Keys reports the key-space size — the domain a Zipf generator aimed at
// this workload must cover.
func (k *KV) Keys() int { return k.cfg.Keys }

// Name implements stamp.Workload.
func (k *KV) Name() string {
	return fmt.Sprintf("kv(keys=%d,read=%d%%)", k.cfg.Keys, k.cfg.ReadPct)
}

// Setup implements stamp.Workload: every key starts at value 0.
func (k *KV) Setup(_ *rand.Rand) error {
	if k.cfg.Keys < 1 {
		return fmt.Errorf("load: kv needs at least one key")
	}
	k.m = container.NewHashMap[int64](k.cfg.Buckets)
	for i := 0; i < k.cfg.Keys; i++ {
		key := int64(i)
		if err := k.rt.Atomic(func(tx *stm.Tx) error {
			k.m.Put(tx, key, 0)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// Task implements stamp.Workload: the closed-loop path draws keys uniformly
// from the workload's own rng (no hot set — open-loop serving is where the
// Zipf mix lives).
func (k *KV) Task() pool.Task {
	return func(workerID int, rng *rand.Rand) bool {
		return k.ServeKey(workerID, uint64(rng.Int63n(int64(k.cfg.Keys))), rng)
	}
}

// ServeKey implements Keyed: one read or increment against the keyed entry.
func (k *KV) ServeKey(_ int, key uint64, rng *rand.Rand) bool {
	id := int64(key % uint64(k.cfg.Keys))
	if rng.Intn(100) < k.cfg.ReadPct {
		var ok bool
		err := k.rt.AtomicRO(func(tx *stm.Tx) error {
			_, ok = k.m.Get(tx, id)
			return nil
		})
		if err != nil {
			return false
		}
		if !ok {
			k.misses.Add(1)
		}
		return true
	}
	err := k.rt.Atomic(func(tx *stm.Tx) error {
		k.m.Update(tx, id, func(v int64, _ bool) int64 { return v + 1 })
		return nil
	})
	if err != nil {
		return false
	}
	k.increments.Add(1)
	return true
}

// RegisterDurable implements wal.DurableState: key i binds to WAL id i+1.
// Setup populates every key before traffic starts and entries are never
// deleted, so each key's EntryVar is a stable location for the log to
// target. Must run after Setup and before traffic.
func (k *KV) RegisterDurable(reg *wal.Registry) error {
	return k.rt.AtomicRO(func(tx *stm.Tx) error {
		for i := 0; i < k.cfg.Keys; i++ {
			v := k.m.EntryVar(tx, int64(i))
			if v == nil {
				return fmt.Errorf("load: kv key %d missing at registration", i)
			}
			if err := wal.RegisterVar(reg, uint64(i)+1, v); err != nil {
				return err
			}
		}
		return nil
	})
}

// Rebase implements wal.DurableState: after recovery the values hold the
// replayed prefix's increments, but the fresh incarnation's increment
// counter is zero — rebase it to the recovered sum so Verify's
// sum==increments invariant holds for the restarted process.
func (k *KV) Rebase() error {
	var sum int64
	err := k.rt.AtomicRO(func(tx *stm.Tx) error {
		total := int64(0)
		for i := 0; i < k.cfg.Keys; i++ {
			v, ok := k.m.Get(tx, int64(i))
			if !ok {
				return fmt.Errorf("load: kv key %d vanished during rebase", i)
			}
			total += v
		}
		sum = total
		return nil
	})
	if err != nil {
		return err
	}
	k.increments.Store(uint64(sum))
	k.misses.Store(0)
	return nil
}

// Verify implements stamp.Workload: populated keys must never miss, and the
// values must sum to exactly the committed increment count.
func (k *KV) Verify() error {
	if m := k.misses.Load(); m != 0 {
		return fmt.Errorf("load: kv saw %d misses on populated keys", m)
	}
	var sum int64
	err := k.rt.AtomicRO(func(tx *stm.Tx) error {
		total := int64(0) // closure-local: retry-safe accumulation
		for i := 0; i < k.cfg.Keys; i++ {
			v, ok := k.m.Get(tx, int64(i))
			if !ok {
				return fmt.Errorf("load: kv key %d vanished", i)
			}
			total += v
		}
		sum = total
		return nil
	})
	if err != nil {
		return err
	}
	if want := int64(k.increments.Load()); sum != want {
		return fmt.Errorf("load: kv value sum %d != committed increments %d", sum, want)
	}
	return nil
}
