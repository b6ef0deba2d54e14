package load

import (
	"math/rand"
	"testing"

	"rubic/internal/stm"
	"rubic/internal/wal"
)

// TestKVWritePathAllocFree pins the serving path's write request — a
// read-modify-write of one hash-map entry — at exactly zero allocations, on
// both engines, volatile and with a write-ahead log attached (the log's
// goroutine included: AllocsPerRun counts process-wide).
func TestKVWritePathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		for _, durable := range []bool{false, true} {
			name := algo.String() + "/volatile"
			if durable {
				name = algo.String() + "/wal"
			}
			t.Run(name, func(t *testing.T) {
				rt := stm.New(stm.Config{Algorithm: algo})
				kv := NewKV(rt, KVConfig{Keys: 64, ReadPct: 1})
				rng := rand.New(rand.NewSource(1))
				if err := kv.Setup(rng); err != nil {
					t.Fatal(err)
				}
				warm := 256
				if durable {
					l, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.FsyncOS})
					if err != nil {
						t.Fatal(err)
					}
					defer l.Close()
					if err := kv.RegisterDurable(wal.NewRegistry()); err != nil {
						t.Fatal(err)
					}
					rt.AttachCommitSink(l)
					warm = 3 * 4096 // every ring slot's retained buffer, three laps
				}
				key := uint64(0)
				serve := func() {
					key++
					if !kv.ServeKey(0, key, rng) {
						t.Error("request failed")
					}
				}
				for i := 0; i < warm; i++ {
					serve()
				}
				before := kv.increments.Load()
				if got := testing.AllocsPerRun(2000, serve); got != 0 {
					t.Errorf("KV.ServeKey allocates %.3f objects/request, want exactly 0", got)
				}
				if kv.increments.Load()-before < 1900 {
					t.Fatalf("only %d of 2001 requests took the write path", kv.increments.Load()-before)
				}
			})
		}
	}
}

// TestZipfNextAllocFree pins the key draw at zero allocations: the tables
// are built once in NewZipf and Next only reads them.
func TestZipfNextAllocFree(t *testing.T) {
	z, err := NewZipf(10_000, DefaultTheta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(2000, func() { z.Next() }); got != 0 {
		t.Errorf("Zipf.Next allocates %.3f objects/draw, want exactly 0", got)
	}
}
