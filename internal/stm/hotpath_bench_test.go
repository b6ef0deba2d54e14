package stm

import (
	"sync/atomic"
	"testing"
)

// Hot-path micro-benchmarks of the transaction life cycle itself, run on
// both engines. They are the benchmarks the Makefile's bench/benchgate
// targets parse into BENCH_<date>.json and gate against BENCH_baseline.json:
// keep names stable.
//
// Allocation discipline pinned by alloc_test.go: steady-state AtomicRO is
// 0 allocs/op and so is a write commit of the int values used here.

// benchEngines enumerates the concurrency-control engines under test.
var benchEngines = []struct {
	name string
	algo Algorithm
}{
	{"tl2", TL2},
	{"norec", NOrec},
}

func BenchmarkAtomicRO(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			x := NewVar(42)
			sink := 0
			fn := func(tx *Tx) error {
				sink = x.Read(tx)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.AtomicRO(fn); err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}

func BenchmarkAtomicWrite(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			x := NewVar(0)
			v := 0
			fn := func(tx *Tx) error {
				x.Write(tx, v)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v = i & 0x7f
				if err := rt.Atomic(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAtomicRMW is the classic transactional counter: one read and one
// write of the same location per transaction, single-threaded.
func BenchmarkAtomicRMW(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			x := NewVar(0)
			fn := func(tx *Tx) error {
				x.Write(tx, (x.Read(tx)+1)&0x7f)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Atomic(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAtomicWriteHeavy is the write-heavy multi-worker configuration
// the benchmark gate tracks: each parallel worker owns a private stripe of
// locations and writes 8 of them per transaction, so the benchmark measures
// per-transaction overhead (allocation, commit timestamping, statistics)
// rather than data conflicts.
func BenchmarkAtomicWriteHeavy(b *testing.B) {
	const stripe = 64
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			vars := make([]*Var[int], 64*stripe)
			for i := range vars {
				vars[i] = NewVar(0)
			}
			var nextStripe atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := int(nextStripe.Add(1)-1) % 64 * stripe
				off := 0
				val := 0
				fn := func(tx *Tx) error {
					for k := 0; k < 8; k++ {
						vars[base+(off+k)%stripe].Write(tx, val)
					}
					return nil
				}
				for pb.Next() {
					off = (off + 8) % stripe
					val = (val + 1) & 0x7f
					_ = rt.Atomic(fn)
				}
			})
		})
	}
}

// BenchmarkAtomicHighConflict hammers a single location from all workers:
// the abort/retry slow path, contention management and commit serialization.
func BenchmarkAtomicHighConflict(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			x := NewVar(0)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				fn := func(tx *Tx) error {
					x.Write(tx, (x.Read(tx)+1)&0x7f)
					return nil
				}
				for pb.Next() {
					_ = rt.Atomic(fn)
				}
			})
		})
	}
}

// BenchmarkAtomicReadSet exercises read-set bookkeeping and commit-time
// validation: an update transaction that reads 32 locations and writes one.
func BenchmarkAtomicReadSet(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt := New(Config{Algorithm: e.algo})
			vars := make([]*Var[int], 32)
			for i := range vars {
				vars[i] = NewVar(i & 0x7f)
			}
			fn := func(tx *Tx) error {
				sum := 0
				for _, v := range vars {
					sum += v.Read(tx)
				}
				vars[0].Write(tx, sum&0x7f)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Atomic(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAtomicROPostSwitch is the adaptive-era twin of BenchmarkAtomicRO:
// the same read-only hot path on a runtime that arrived at its engine
// through a live handoff (and carries a swapped contention manager). Gated
// against the baseline to prove the switch machinery — the gate check on
// enter, the CM indirection — leaves the non-adaptive hot path unchanged.
func BenchmarkAtomicROPostSwitch(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			other := NOrec
			if e.algo == NOrec {
				other = TL2
			}
			rt := New(Config{Algorithm: other})
			x := NewVar(42)
			rt.SetContentionManager(GreedyCM{})
			rt.SwitchEngine(e.algo)
			sink := 0
			fn := func(tx *Tx) error {
				sink = x.Read(tx)
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.AtomicRO(fn); err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkVarPeek prices what every typed access pays on top of the engine:
// deriving T's kind from its type descriptor and converting the location's
// words to a T, per storage class. Peek is that plus four atomic loads.
func BenchmarkVarPeek(b *testing.B) {
	n := 7
	word, ptr, box := NewVar(int64(1)<<40), NewVar(&n), NewVar("seven")
	b.Run("word", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += word.Peek()
		}
		_ = sink
	})
	b.Run("ptr", func(b *testing.B) {
		var sink *int
		for i := 0; i < b.N; i++ {
			sink = ptr.Peek()
		}
		_ = sink
	})
	b.Run("box", func(b *testing.B) {
		var sink string
		for i := 0; i < b.N; i++ {
			sink = box.Peek()
		}
		_ = sink
	})
}
