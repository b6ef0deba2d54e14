package wal

import (
	"testing"

	"rubic/internal/stm"
)

// Allocation gates for durable mode, mirroring internal/stm/alloc_test.go:
// attaching the log must not cost the read-only path its zero-allocation
// guarantee, and a durable write of a scalar allocates nothing either — the
// encoder reads the committed word straight from the op, the encode path runs
// into ring-slot-retained buffers and the log goroutine reuses its batch,
// state and scratch capacity, so steady state adds nothing per commit.
// testing.AllocsPerRun counts process-wide mallocs, so the gate covers the
// log goroutine too, not just the committer.

var allocEngines = []stm.Algorithm{stm.TL2, stm.NOrec}

func durableRig(t *testing.T, algo stm.Algorithm) (*stm.Runtime, *stm.Var[int], *Log) {
	t.Helper()
	l, err := Open(Options{Dir: t.TempDir(), Policy: FsyncOS})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	rt := stm.New(stm.Config{Algorithm: algo})
	x := stm.NewVar(0)
	reg := NewRegistry()
	if err := RegisterVar(reg, 1, x); err != nil {
		t.Fatal(err)
	}
	rt.AttachCommitSink(l)
	// Warm every ring slot's retained buffer (the ring wraps every
	// defaultRingSize commits), the tx pools, and the logger's batch (up to a
	// ring's worth of frames) and state image, so the measured loop sees
	// steady state.
	for i := 0; i < 3*defaultRingSize; i++ {
		if err := rt.Atomic(func(tx *stm.Tx) error {
			x.Write(tx, (x.Read(tx)+1)&0x3f)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, x, l
}

func TestDurableSmallWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt, x, _ := durableRig(t, algo)
			fn := func(tx *stm.Tx) error {
				x.Write(tx, x.Read(tx)+1000)
				return nil
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := rt.Atomic(fn); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Errorf("durable small write allocates %.3f objects/op, want exactly 0", allocs)
			}
		})
	}
}

func TestAtomicROAllocFreeWithLogAttached(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt, x, _ := durableRig(t, algo)
			var sink int
			fn := func(tx *stm.Tx) error {
				sink = x.Read(tx)
				return nil
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if err := rt.AtomicRO(fn); err != nil {
					t.Error(err)
				}
			})
			if allocs > 0.001 {
				t.Errorf("AtomicRO with log attached allocates %.3f objects/op, want 0", allocs)
			}
			_ = sink
		})
	}
}
