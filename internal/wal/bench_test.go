package wal

import (
	"os"
	"testing"

	"rubic/internal/stm"
)

// Durable-mode commit benchmarks, parsed by the Makefile's bench targets
// into the rubic-bench JSON and gated against BENCH_baseline.json: keep
// names stable. The fsync=os policy is used so the numbers measure the
// enqueue/encode/group-commit pipeline, not the device's fsync latency —
// the durability tax the paper's cost model cares about is the hot-path
// overhead, which these pin alongside internal/stm's non-durable numbers.

var benchEngines = []struct {
	name string
	algo stm.Algorithm
}{
	{"tl2", stm.TL2},
	{"norec", stm.NOrec},
}

// benchDir prefers a tmpfs-backed directory: with fsync=os the log never
// syncs, but a disk-backed tmpdir still exposes the run to dirty-page
// writeback stalls, which show up as multi-x outliers in the regression
// gate. The hot-path cost under measurement is identical either way.
func benchDir(b *testing.B) string {
	b.Helper()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "rubic-wal-bench-")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

func benchRig(b *testing.B, algo stm.Algorithm) (*stm.Runtime, *stm.Var[int]) {
	b.Helper()
	l, err := Open(Options{Dir: benchDir(b), Policy: FsyncOS})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	rt := stm.New(stm.Config{Algorithm: algo})
	x := stm.NewVar(0)
	reg := NewRegistry()
	if err := RegisterVar(reg, 1, x); err != nil {
		b.Fatal(err)
	}
	rt.AttachCommitSink(l)
	return rt, x
}

// BenchmarkDurableWrite is the durable counterpart of BenchmarkAtomicWrite:
// one durable location, blind write, log attached.
func BenchmarkDurableWrite(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt, x := benchRig(b, e.algo)
			v := 0
			fn := func(tx *stm.Tx) error {
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

// BenchmarkDurableRMW is the durable read-modify-write: the shape the bank
// and kv workloads commit.
func BenchmarkDurableRMW(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt, x := benchRig(b, e.algo)
			fn := func(tx *stm.Tx) error {
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

// BenchmarkDurableRO pins that an attached log costs the read-only path
// nothing.
func BenchmarkDurableRO(b *testing.B) {
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			rt, x := benchRig(b, e.algo)
			sink := 0
			fn := func(tx *stm.Tx) error {
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

// BenchmarkWALEncodeRecord isolates the producer-side encode: one op into a
// retained buffer.
func BenchmarkWALEncodeRecord(b *testing.B) {
	ops := []stm.DurableOp{opOf(7, 123)}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = appendRecord(buf[:0], uint64(i+1), ops)
	}
	_ = buf
}
