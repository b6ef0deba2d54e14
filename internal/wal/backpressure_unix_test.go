//go:build unix

package wal

import (
	"sync"
	"syscall"
	"testing"
	"time"

	"rubic/internal/fault"
	"rubic/internal/stm"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestFullRingParksCommitters: every group fsync stalls for 10-50 ms, so a
// ring of 8 is full nearly all the time and the run is one stall after
// another. Four committers commit until enough stalls have passed. All of
// them must get through every stall, must spend the stalls parked — process
// CPU far below wall time x committers, where a polling committer burns a
// processor for the length of every stall — and the log must still recover
// the exact committed prefix.
func TestFullRingParksCommitters(t *testing.T) {
	const committers, stalls = 4, 8
	atProcs(t, func(t *testing.T) {
		dir := t.TempDir()
		inj := fault.New(&fault.Plan{Seed: 3, Events: []fault.Event{{Point: fault.WALFsyncStall, From: 0, Count: 1 << 20}}})
		s := newStorm(t, dir, stm.TL2, committers, Options{
			Policy: FsyncInterval, Interval: 200 * time.Microsecond, Faults: inj, RingSize: 8,
		})
		cpu0, start := processCPU(t), time.Now()
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// A committer leaves after a commit of its own that followed
				// the last stall's start: it got through all of them.
				for inj.Fired() < stalls {
					if err := s.transfer(w, (w+1)%committers); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		wall, cpu := time.Since(start), processCPU(t)-cpu0
		t.Logf("%d commits: %v wall, %v CPU, %d stalled fsyncs, %d parks", s.log.LastCSN(), wall, cpu, inj.Fired(), s.log.RingFullWaits())
		if lost, err := s.log.Lost(); lost {
			t.Fatalf("stall must not lose durability: %v", err)
		}
		if s.log.RingFullWaits() == 0 {
			t.Error("no committer ever parked on the 8-slot ring")
		}
		if limit := wall * committers / 8; cpu > limit {
			t.Errorf("process used %v CPU over %v of stalls with %d committers, want under %v: committers are polling, not parked",
				cpu, wall, committers, limit)
		}
		last := s.log.LastCSN()
		if err := s.log.Close(); err != nil {
			t.Fatal(err)
		}
		s2, rec := recoverInto(t, dir, stm.TL2, committers, 100)
		defer s2.log.Close()
		if rec.LastCSN != last || rec.Torn {
			t.Fatalf("recovered %+v, want the whole prefix %d", rec, last)
		}
		if got := s2.total(); got != committers*100 {
			t.Errorf("recovered total %d, want %d", got, committers*100)
		}
	})
}
