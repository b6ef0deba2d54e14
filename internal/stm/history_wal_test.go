package stm_test

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rubic/internal/stm"
	"rubic/internal/wal"
)

// csnLog is a log as a runtime's commit sink that also remembers which
// attempt each commit sequence number belongs to: every value a recorded
// attempt writes names it.
type csnLog struct {
	*wal.Log
	mu    *sync.Mutex
	owner map[uint64]uint64 // CSN -> the value its commit wrote
}

func (l csnLog) Publish(csn uint64, ops []stm.DurableOp) {
	l.mu.Lock()
	l.owner[csn] = ops[0].Word
	l.mu.Unlock()
	l.Log.Publish(csn, ops)
}

// TestHistoryDurable holds a log's recovered state to the history checker.
// A first history runs on a fresh log with an eight-slot ring and is closed
// cleanly; the reopened log must recover all of it, and its ring starts
// mid-lap. A second history runs on the reopened log, and the directory is
// copied while it runs, without Close: a crash image. The state recovered
// from the image, taken as one read-only attempt that began after every
// commit durable before the copy, must pass the opacity rule — it is a
// consistent cut, and it contains each of those commits.
func TestHistoryDurable(t *testing.T) {
	const cells, workers, txs = 3, 4, 500
	var (
		h     stm.History
		mu    sync.Mutex
		owner = map[uint64]uint64{}
	)
	// open recovers dir into new Vars on a new runtime logging to it.
	open := func(dir string) ([]*stm.Var[uint64], *stm.Runtime, csnLog) {
		t.Helper()
		l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.FsyncOS, RingSize: 8, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		reg := wal.NewRegistry()
		vs := make([]*stm.Var[uint64], cells)
		for i := range vs {
			vs[i] = new(stm.Var[uint64])
			if err := wal.RegisterVar(reg, uint64(i+1), vs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.ApplyTo(reg); err != nil {
			t.Fatal(err)
		}
		rt := stm.New(stm.Config{})
		sink := csnLog{Log: l, mu: &mu, owner: owner}
		rt.AttachCommitSink(sink)
		return vs, rt, sink
	}
	peek := func(vs []*stm.Var[uint64]) []uint64 {
		vals := make([]uint64, len(vs))
		for i, v := range vs {
			vals[i] = v.Peek()
		}
		return vals
	}

	dir := t.TempDir()
	vs, rt, log := open(dir)
	if err := h.Record(rt, vs, workers, txs, 1); err != nil {
		t.Fatal(err)
	}
	want := peek(vs)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	vs, rt, log = open(dir)
	if got := peek(vs); !slices.Equal(got, want) {
		t.Fatalf("reopened log recovered %v, closed at %v", got, want)
	}
	start := log.Recovered().LastCSN
	if start%8 == 0 {
		t.Fatalf("%d commits recovered: the ring starts at a lap boundary", start)
	}

	crash := filepath.Join(t.TempDir(), "crash")
	var durable uint64
	copied := make(chan error, 1)
	go func() {
		for log.DurableCSN() < start+100 {
			runtime.Gosched()
		}
		durable = log.DurableCSN()
		copied <- copyDir(dir, crash)
	}()
	if err := h.Record(rt, vs, workers, txs, 2); err != nil {
		t.Fatal(err)
	}
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	cut, _, recovered := open(crash)
	defer recovered.Close()
	var after []uint64
	mu.Lock()
	for csn, v := range owner {
		if csn <= durable {
			after = append(after, v)
		}
	}
	mu.Unlock()
	h.Cut(peek(cut), after)
	if err := h.Check(); err != nil {
		t.Fatalf("state recovered through CSN %d, %d durable before the copy: %v", recovered.Recovered().LastCSN, durable, err)
	}
}

// copyDir copies the files of src into a new directory dst, each as far as
// it is written when its copy reads it.
func copyDir(src, dst string) error {
	files, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.Mkdir(dst, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
