package wal

import (
	"testing"

	"rubic/internal/stm"
)

// Allocation gates for durable mode, mirroring internal/stm/alloc_test.go:
// attaching the log must not cost the read-only path its zero-allocation
// guarantee, and a durable write of a scalar allocates nothing either — the
// encoder reads the committed word straight from the op, the encode path runs
// into the ring slot itself and the log goroutine reuses its batch, state and
// scratch capacity, so steady state adds nothing per commit.
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
	// Warm the tx pools and the logger's batch (up to a ring's worth of
	// frames) and state image, so the measured loop sees steady state.
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

// TestPublishOverflowAllocs: records too long for their slot go to the slot
// index's overflow buffer, and after a lap has sized those — and the logger's
// state image has seen every value length — a mix of overflow and inline
// records costs nothing either. Publish is driven directly: a wide value
// through a transaction costs its box (stm.newBox), which is not the log's.
func TestPublishOverflowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds shadow allocations")
	}
	l, err := Open(Options{Dir: t.TempDir(), Policy: FsyncOS, RingSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	shapes := ringShapes()
	publish := func() {
		csn := l.BeginCommit()
		// Stride 9 against 64 slots and 7 shapes: every slot index meets
		// every shape within a few laps.
		l.Publish(csn, shapes[csn*9%uint64(len(shapes))])
	}
	for i := 0; i < 64*len(shapes)*3; i++ {
		publish()
	}
	if allocs := testing.AllocsPerRun(2000, publish); allocs != 0 {
		t.Errorf("steady-state publish of mixed inline/overflow records allocates %.3f objects/op, want exactly 0", allocs)
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
