package colocate

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rubic/internal/stamp"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// AttachDurability binds a workload's durable locations to a write-ahead
// log and attaches the log to the workload's runtime as its commit sink.
// It is the recovery choreography in one place, in the order the wal
// package's DurableState contract requires:
//
//	Setup (caller) → RegisterDurable → Open → ApplyTo → Rebase → Verify
//
// The workload must already be set up (its Vars exist) and must not yet be
// taking traffic. When the log recovered a non-empty prefix, the restored
// state is re-audited with the workload's own Verify before any new commit
// is allowed — a recovery that breaks the workload's invariants fails loudly
// here instead of corrupting the run.
//
// The caller owns the returned log and must Close it after the workload
// stops committing.
func AttachDurability(w stamp.Workload, rt *stm.Runtime, opts wal.Options) (*wal.Log, error) {
	ds, ok := w.(wal.DurableState)
	if !ok {
		return nil, fmt.Errorf("colocate: workload %s does not support durability", w.Name())
	}
	if rt == nil {
		return nil, fmt.Errorf("colocate: durability for %s needs the workload's runtime", w.Name())
	}
	reg := wal.NewRegistry()
	if err := ds.RegisterDurable(reg); err != nil {
		return nil, fmt.Errorf("colocate: register %s durable state: %w", w.Name(), err)
	}
	l, err := wal.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := l.ApplyTo(reg); err != nil {
		l.Close()
		return nil, fmt.Errorf("colocate: replay into %s: %w", w.Name(), err)
	}
	if l.Recovered().LastCSN > 0 {
		if err := ds.Rebase(); err != nil {
			l.Close()
			return nil, fmt.Errorf("colocate: rebase %s after recovery: %w", w.Name(), err)
		}
		if err := w.Verify(); err != nil {
			l.Close()
			return nil, fmt.Errorf("colocate: recovered %s state fails verification: %w", w.Name(), err)
		}
	}
	rt.AttachCommitSink(l)
	return l, nil
}

// readLog reports a log's current position.
func readLog(l *wal.Log) *WalResult {
	lost, lostErr := l.Lost()
	return &WalResult{
		Recovered:  l.Recovered(),
		LastCSN:    l.LastCSN(),
		DurableCSN: l.DurableCSN(),
		Lost:       lost,
		LostErr:    lostErr,

		Batches:       l.Batches(),
		Records:       l.Records(),
		Snapshots:     l.Snapshots(),
		RingFullWaits: l.RingFullWaits(),
	}
}

// String is the outcome line the CLIs print after a stack's name.
func (w *WalResult) String() string {
	status := "durable"
	if w.Lost {
		status = fmt.Sprintf("durability LOST: %v", w.LostErr)
	}
	perBatch := 0.0
	if w.Batches > 0 {
		perBatch = float64(w.Records) / float64(w.Batches)
	}
	return fmt.Sprintf("wal acked %d/%d commits, recovered prefix %d, %.1f records/batch, %d snapshots, %d ring-full waits — %s",
		w.DurableCSN, w.LastCSN, w.Recovered.LastCSN, perBatch, w.Snapshots, w.RingFullWaits, status)
}

// closeLog flushes and closes a log whose stack has stopped committing and
// reports its final outcome: Close drains the tail first, so the durable
// watermark read after it includes the last batch. A failed Close counts as
// lost durability.
func closeLog(l *wal.Log) *WalResult {
	closeErr := l.Close()
	wr := readLog(l)
	if closeErr != nil && wr.LostErr == nil {
		wr.Lost, wr.LostErr = true, closeErr
	}
	return wr
}

// WalDir is a stack's log directory under root: stable across restarts (a
// replacement must find its predecessor's log) and disjoint from its
// siblings'. Path separators in the name are flattened, so a stack named
// "kv/poisson" gets one directory directly under root. An empty name means
// root already is the stack's own directory.
func WalDir(root, stack string) string {
	if stack == "" {
		return root
	}
	return filepath.Join(root, strings.Map(func(c rune) rune {
		if c == '/' || c == '\\' || c == os.PathSeparator {
			return '_'
		}
		return c
	}, stack))
}

// DurableFlags is the -durable/-wal-dir/-fsync flag group every driver
// shares.
type DurableFlags struct {
	// On attaches a write-ahead log to every stack; the workload must
	// implement wal.DurableState.
	On bool
	// Root is the parent directory of the per-stack logs (see WalDir).
	Root string
	// Fsync names the group-commit policy: always, interval or os.
	Fsync string
}

// Register declares the group on fs.
func (d *DurableFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&d.On, "durable", false, "attach a write-ahead log to every stack (an existing log is recovered first)")
	fs.StringVar(&d.Root, "wal-dir", "", "parent directory of the per-stack logs (required with -durable)")
	fs.StringVar(&d.Fsync, "fsync", "always", "wal group-commit policy: always, interval or os")
}

// Options validates the group and returns the named stack's log options, nil
// when -durable is off.
func (d DurableFlags) Options(stack string) (*wal.Options, error) {
	if !d.On {
		return nil, nil
	}
	if d.Root == "" {
		return nil, fmt.Errorf("colocate: -durable needs -wal-dir")
	}
	policy, err := wal.ParseFsyncPolicy(d.Fsync)
	if err != nil {
		return nil, err
	}
	return &wal.Options{Dir: WalDir(d.Root, stack), Policy: policy}, nil
}
