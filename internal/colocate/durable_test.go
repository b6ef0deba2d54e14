package colocate

import (
	"testing"
	"time"

	"rubic/internal/load"
	"rubic/internal/stamp/bank"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// TestDurableStackSurvivesRestart is the in-process restart round trip, over
// both drives: a stack runs with a WAL attached, stops cleanly, and a second
// incarnation over the same directory recovers every commit through
// openStack and passes the workload's own verification (Run re-audits Verify
// for us). The closed loop runs bank transfers, the open loop serves kv
// requests.
func TestDurableStackSurvivesRestart(t *testing.T) {
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			runOnce := func(incarnation int) *WalResult {
				rt := stm.New(stm.Config{})
				p := Proc{
					Name:     "stack",
					Workload: bank.New(rt, bank.Config{Accounts: 64}),
					PoolSize: 4,
					Seed:     int64(incarnation),
					Runtime:  rt,
					Durable:  &wal.Options{Dir: dir, Policy: wal.FsyncOS},
					Serve:    d.serve(t),
				}
				if p.Serve != nil {
					p.Workload = load.NewKV(rt, load.KVConfig{Keys: 64, ReadPct: 1})
				}
				g, err := NewGroup([]Proc{p}, 5*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				res, err := g.Run(150 * time.Millisecond)
				if err != nil {
					t.Fatalf("incarnation %d: %v", incarnation, err)
				}
				if res[0].Wal == nil {
					t.Fatalf("incarnation %d: no WAL result on a durable stack", incarnation)
				}
				return res[0].Wal
			}

			first := runOnce(1)
			if first.Lost {
				t.Fatalf("first run lost durability: %v", first.LostErr)
			}
			if first.Recovered.LastCSN != 0 {
				t.Fatalf("fresh directory recovered CSN %d", first.Recovered.LastCSN)
			}
			if first.LastCSN == 0 {
				t.Fatal("first run committed nothing durable")
			}
			if first.DurableCSN != first.LastCSN {
				t.Fatalf("clean close left CSN %d durable of %d issued", first.DurableCSN, first.LastCSN)
			}

			second := runOnce(2)
			if second.Recovered.LastCSN != first.LastCSN {
				t.Fatalf("second incarnation recovered CSN %d, want the first run's %d",
					second.Recovered.LastCSN, first.LastCSN)
			}
			if second.Recovered.Torn {
				t.Fatalf("clean shutdown recovered as torn: %s", second.Recovered.Note)
			}
			if second.LastCSN <= first.LastCSN {
				t.Fatalf("second incarnation's CSNs (%d) did not continue past %d",
					second.LastCSN, first.LastCSN)
			}
		})
	}
}

// TestAttachDurabilityRejectsUnsupportedWorkload: a workload without
// DurableState is a configuration error, caught before traffic.
func TestAttachDurabilityRejectsUnsupportedWorkload(t *testing.T) {
	rt := stm.New(stm.Config{})
	if _, err := AttachDurability(brokenWorkload{}, rt, wal.Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("attached durability to a workload with no durable state")
	}
}
