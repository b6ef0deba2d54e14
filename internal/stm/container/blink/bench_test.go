package blink_test

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"rubic/internal/load"
	"rubic/internal/stm"
	"rubic/internal/stm/container/blink"
)

// B-Link benchmarks for the regression harness, external test package so the
// Zipf generator (internal/load, which imports this package for the ordered
// workload) can supply the YCSB-style hot-key mix. Names are the row keys of
// BENCH_baseline.json and BENCH_baseline_parallel.json (`make benchgate`,
// `make benchscalegate`); keep them stable. The Zipfian shape (theta=0.99, dense
// key space) mirrors the StunDB bptree benchmarks this container is modeled
// on; `make benchscale` sweeps the parallel variants over GOMAXPROCS.

const benchKeys = 1 << 10

var benchEngines = []struct {
	name string
	algo stm.Algorithm
}{
	{"tl2", stm.TL2},
	{"norec", stm.NOrec},
}

func benchMap(b *testing.B, algo stm.Algorithm) (*stm.Runtime, *blink.Map[int64]) {
	b.Helper()
	rt := stm.New(stm.Config{Algorithm: algo})
	m := blink.NewMap[int64]()
	for k := int64(0); k < benchKeys; k++ {
		key := k
		if err := rt.Atomic(func(tx *stm.Tx) error {
			m.Put(tx, key, key<<8)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	return rt, m
}

// benchZipf returns a seeded Zipfian stream over the bench key space.
func benchZipf(b *testing.B, seed int64) *load.Zipf {
	b.Helper()
	z, err := load.NewZipf(benchKeys, load.DefaultTheta, seed)
	if err != nil {
		b.Fatal(err)
	}
	return z
}

// BenchmarkBLink_Lookup_Zipfian: point lookups under the hot-key mix.
// "fast" is the Map's lock-free path, "stm/*" the transactional path under
// AtomicRO. The fast path must stay allocation-free (the alloc gate rides on
// -benchmem).
func BenchmarkBLink_Lookup_Zipfian(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		_, m := benchMap(b, stm.TL2)
		z := benchZipf(b, 1)
		sink := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := m.LookupFast(int64(z.Next()))
			sink += v
		}
		_ = sink
	})
	for _, e := range benchEngines {
		b.Run("stm/"+e.name, func(b *testing.B) {
			rt, m := benchMap(b, e.algo)
			z := benchZipf(b, 1)
			var key, sink int64
			fn := func(tx *stm.Tx) error {
				v, _ := m.Get(tx, key)
				sink += v
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key = int64(z.Next())
				if err := rt.AtomicRO(fn); err != nil {
					b.Error(err)
					return
				}
			}
			_ = sink
		})
	}
}

// BenchmarkBLink_Scan_Zipfian: 64-wide range scans anchored at Zipf-drawn
// keys — the ordered workload shape no hash container can serve.
func BenchmarkBLink_Scan_Zipfian(b *testing.B) {
	const width = 64
	b.Run("fast", func(b *testing.B) {
		_, m := benchMap(b, stm.TL2)
		z := benchZipf(b, 2)
		sink := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := int64(z.Next())
			m.ScanFast(lo, lo+width-1, func(k, v int64) bool {
				sink += v
				return true
			})
		}
		_ = sink
	})
	for _, e := range benchEngines {
		b.Run("stm/"+e.name, func(b *testing.B) {
			rt, m := benchMap(b, e.algo)
			z := benchZipf(b, 2)
			var lo, sink int64
			fn := func(tx *stm.Tx) error {
				m.RangeBetween(tx, lo, lo+width-1, func(k, v int64) bool {
					sink += v
					return true
				})
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo = int64(z.Next())
				if err := rt.AtomicRO(fn); err != nil {
					b.Error(err)
					return
				}
			}
			_ = sink
		})
	}
}

// BenchmarkBLink_Update_Zipfian: read-modify-write on hot keys — the
// contended ordered-index write path (in-place leaf updates, occasional
// splits from the re-insert mix).
func BenchmarkBLink_Update_Zipfian(b *testing.B) {
	for _, e := range benchEngines {
		b.Run("stm/"+e.name, func(b *testing.B) {
			rt, m := benchMap(b, e.algo)
			z := benchZipf(b, 3)
			var key, val int64
			fn := func(tx *stm.Tx) error {
				m.Put(tx, key, val)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key = int64(z.Next())
				val = key<<8 | int64(i&0xff)
				if err := rt.Atomic(fn); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
}

// workerSeq hands each RunParallel worker a distinct deterministic seed
// (worker bodies start concurrently, so the ticket is atomic).
type workerSeq struct{ n atomic.Int64 }

func (s *workerSeq) next() int64 { return s.n.Add(1) * 1_000_003 }

// BenchmarkParallelBLinkLookup: the scaling claim — lock-free readers over
// the hybrid map from every proc, Zipfian keys, zero allocations, no shared
// word touched.
func BenchmarkParallelBLinkLookup(b *testing.B) {
	b.Run("fast", func(b *testing.B) {
		_, m := benchMap(b, stm.TL2)
		seq := workerSeq{}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			z := benchZipf(b, seq.next())
			sink := int64(0)
			for pb.Next() {
				v, _ := m.LookupFast(int64(z.Next()))
				sink += v
			}
			_ = sink
		})
	})
}

// BenchmarkParallelBLinkMixed: 90% lock-free lookups, 10% transactional
// updates from every proc — the hybrid container's service shape.
func BenchmarkParallelBLinkMixed(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt, m := benchMap(b, e.algo)
			seq := workerSeq{}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				seed := seq.next()
				z := benchZipf(b, seed)
				rng := rand.New(rand.NewSource(seed))
				var key int64
				fn := func(tx *stm.Tx) error {
					m.Put(tx, key, key<<8)
					return nil
				}
				sink := int64(0)
				for pb.Next() {
					key = int64(z.Next())
					if rng.Intn(10) == 0 {
						if err := rt.Atomic(fn); err != nil {
							b.Error(err)
							return
						}
					} else {
						v, _ := m.LookupFast(key)
						sink += v
					}
				}
				_ = sink
			})
		})
	}
}
