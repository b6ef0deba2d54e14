package wal

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rubic/internal/fault"
	"rubic/internal/stm"
)

// storm is the shared integration harness: a runtime with durable counters
// 1..vars, hammered by workers doing read-modify-write transactions whose
// global sum is conserved-plus-increments, logged to dir.
type storm struct {
	rt   *stm.Runtime
	vs   []*stm.Var[int]
	log  *Log
	base int
}

func newStorm(t *testing.T, dir string, algo stm.Algorithm, vars int, opts Options) *storm {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := &storm{rt: stm.New(stm.Config{Algorithm: algo}), log: l, base: 100}
	reg := NewRegistry()
	for i := 0; i < vars; i++ {
		v := stm.NewVar(s.base)
		if err := RegisterVar(reg, uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
		s.vs = append(s.vs, v)
	}
	if err := l.ApplyTo(reg); err != nil {
		t.Fatal(err)
	}
	s.rt.AttachCommitSink(l)
	return s
}

// transfer moves 1 unit between two vars: the total is invariant, which is
// what the recovery assertions check.
func (s *storm) transfer(a, b int) error {
	return s.rt.Atomic(func(tx *stm.Tx) error {
		s.vs[a].Write(tx, s.vs[a].Read(tx)-1)
		s.vs[b].Write(tx, s.vs[b].Read(tx)+1)
		return nil
	})
}

func (s *storm) total() int {
	sum := 0
	for _, v := range s.vs {
		sum += v.Peek()
	}
	return sum
}

func (s *storm) run(t *testing.T, workers, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			prng := seed*0x9E3779B97F4A7C15 + 1
			for i := 0; i < iters; i++ {
				prng ^= prng << 13
				prng ^= prng >> 7
				prng ^= prng << 17
				a := int(prng % uint64(len(s.vs)))
				b := int((prng >> 16) % uint64(len(s.vs)))
				if a == b {
					b = (b + 1) % len(s.vs)
				}
				if err := s.transfer(a, b); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
}

// recoverInto reopens dir into a fresh runtime/var set and returns it plus
// the Recovered report.
func recoverInto(t *testing.T, dir string, algo stm.Algorithm, vars, base int) (*storm, Recovered) {
	t.Helper()
	l, err := Open(Options{Dir: dir, Policy: FsyncOS})
	if err != nil {
		t.Fatal(err)
	}
	s := &storm{rt: stm.New(stm.Config{Algorithm: algo}), log: l, base: base}
	reg := NewRegistry()
	for i := 0; i < vars; i++ {
		v := stm.NewVar(base)
		if err := RegisterVar(reg, uint64(i+1), v); err != nil {
			t.Fatal(err)
		}
		s.vs = append(s.vs, v)
	}
	if err := l.ApplyTo(reg); err != nil {
		t.Fatal(err)
	}
	s.rt.AttachCommitSink(l)
	return s, l.Recovered()
}

func TestCleanRestartRecoversEverything(t *testing.T) {
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOS} {
				t.Run(policy.String(), func(t *testing.T) {
					dir := t.TempDir()
					s := newStorm(t, dir, algo, 6, Options{Policy: policy})
					s.run(t, 4, 300)
					want := make([]int, len(s.vs))
					for i, v := range s.vs {
						want[i] = v.Peek()
					}
					last := s.log.LastCSN()
					if err := s.log.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					s2, rec := recoverInto(t, dir, algo, 6, 100)
					defer s2.log.Close()
					if rec.LastCSN != last {
						t.Fatalf("recovered CSN %d, want %d", rec.LastCSN, last)
					}
					if rec.Torn {
						t.Fatalf("clean close recovered torn: %s", rec.Note)
					}
					for i, v := range s2.vs {
						if got := v.Peek(); got != want[i] {
							t.Errorf("var %d: recovered %d, want %d", i, got, want[i])
						}
					}
					if got := s2.total(); got != 6*100 {
						t.Errorf("recovered total %d, want %d", got, 6*100)
					}
				})
			}
		})
	}
}

// TestTornWriteRecoversCommittedPrefix simulates the power cut: a torn batch
// write kills durability mid-storm; recovery must surface at least every
// acked commit and nothing torn, and the transfer invariant must hold on the
// recovered state.
func TestTornWriteRecoversCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(&fault.Plan{Seed: 42, Events: []fault.Event{{Point: fault.WALTorn, From: 3}}})
	crashed := make(chan struct{})
	s := newStorm(t, dir, stm.TL2, 6, Options{
		Policy:  FsyncAlways,
		Faults:  inj,
		OnCrash: func() { close(crashed) },
	})
	s.run(t, 4, 400)
	select {
	case <-crashed:
	case <-time.After(10 * time.Second):
		t.Fatal("torn-write injection never fired")
	}
	acked := s.log.DurableCSN()
	last := s.log.LastCSN()
	if lost, err := s.log.Lost(); !lost {
		t.Fatalf("torn write did not mark durability lost (err=%v)", err)
	}
	s.log.Close()

	s2, rec := recoverInto(t, dir, stm.TL2, 6, 100)
	defer s2.log.Close()
	if !rec.Torn {
		t.Error("recovery of a torn log did not report Torn")
	}
	if rec.LastCSN < acked {
		t.Errorf("recovered prefix %d < acked watermark %d: acked commit lost", rec.LastCSN, acked)
	}
	if rec.LastCSN > last {
		t.Errorf("recovered prefix %d > last assigned CSN %d", rec.LastCSN, last)
	}
	if got := s2.total(); got != 6*100 {
		t.Errorf("recovered total %d, want %d: prefix is not transaction-consistent", got, 6*100)
	}
}

// TestFsyncErrorDegradesWithoutWedging: a failing fsync must raise the
// durability-lost flag, fire the escalation hook, release every group-commit
// waiter and keep the runtime committing in memory.
func TestFsyncErrorDegradesWithoutWedging(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(&fault.Plan{Seed: 7, Events: []fault.Event{{Point: fault.WALFsyncErr, From: 0}}})
	s := newStorm(t, dir, stm.TL2, 2, Options{Policy: FsyncAlways, Faults: inj})
	hooked := make(chan error, 1)
	s.log.SetLostHook(func(err error) { hooked <- err })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.transfer(0, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commits wedged after fsync error")
	}
	select {
	case err := <-hooked:
		if err == nil {
			t.Error("lost hook fired with nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("lost hook never fired")
	}
	if lost, _ := s.log.Lost(); !lost {
		t.Fatal("fsync error did not mark durability lost")
	}
	if err := s.log.Close(); err == nil {
		t.Error("Close after durability loss returned nil error")
	}
	// The lost hook fires immediately when installed after the fact.
	late := make(chan error, 1)
	s.log.SetLostHook(func(err error) { late <- err })
	select {
	case <-late:
	case <-time.After(time.Second):
		t.Fatal("late-installed lost hook did not fire")
	}
}

// TestCorruptBatchIsDetectedOnRecovery: a silently corrupted frame ends the
// recovered prefix with Torn set — garbage is never surfaced as state.
func TestCorruptBatchIsDetectedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(&fault.Plan{Seed: 9, Events: []fault.Event{{Point: fault.WALCorrupt, From: 0}}})
	s := newStorm(t, dir, stm.TL2, 4, Options{Policy: FsyncOS, Faults: inj, SnapshotEvery: -1})
	// Sequential commits so batches keep flowing until the corrupt one lands.
	for i := 0; i < 500; i++ {
		if err := s.transfer(i%4, (i+1)%4); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce the logger, then read the directory underneath it (simulating
	// the no-clean-shutdown case: Close would write a pristine snapshot that
	// papers over the damaged segment).
	quiesce(t, s.log)
	state, rec, err := recoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("corrupted frame not detected")
	}
	if rec.LastCSN >= s.log.DurableCSN() {
		t.Errorf("corruption should cut the prefix below the watermark: prefix %d, watermark %d",
			rec.LastCSN, s.log.DurableCSN())
	}
	_ = state
	s.log.Close()
}

// TestSnapshotRotationCompacts: frequent snapshots must bound the number of
// live segments and still recover exact state.
func TestSnapshotRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	s := newStorm(t, dir, stm.NOrec, 4, Options{Policy: FsyncOS, SnapshotEvery: 16})
	s.run(t, 2, 400)
	quiesce(t, s.log)
	segs := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			segs++
		}
	}
	if segs > 2 {
		t.Errorf("%d live segments after compaction, want <= 2", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Errorf("no snapshot after rotation: %v", err)
	}
	want := make([]int, len(s.vs))
	for i, v := range s.vs {
		want[i] = v.Peek()
	}
	last := s.log.LastCSN()
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := recoverInto(t, dir, stm.NOrec, 4, 100)
	defer s2.log.Close()
	if rec.LastCSN != last {
		t.Fatalf("recovered CSN %d, want %d", rec.LastCSN, last)
	}
	for i, v := range s2.vs {
		if got := v.Peek(); got != want[i] {
			t.Errorf("var %d: recovered %d, want %d", i, got, want[i])
		}
	}
}

// TestFsyncStallBacksPressure: a stalled fsync delays acks but loses
// nothing.
func TestFsyncStallBacksPressure(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(&fault.Plan{Seed: 3, Events: []fault.Event{{Point: fault.WALFsyncStall, From: 1, Count: 3}}})
	s := newStorm(t, dir, stm.TL2, 4, Options{Policy: FsyncAlways, Faults: inj, RingSize: 8})
	s.run(t, 4, 100)
	if lost, err := s.log.Lost(); lost {
		t.Fatalf("stall must not lose durability: %v", err)
	}
	last := s.log.LastCSN()
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := recoverInto(t, dir, stm.TL2, 4, 100)
	defer s2.log.Close()
	if rec.LastCSN != last {
		t.Fatalf("recovered CSN %d, want %d", rec.LastCSN, last)
	}
}

// TestTruncateInjectionOnRecovery: the wal.truncate point cuts the tail at
// replay time; recovery degrades to the surviving prefix.
func TestTruncateInjectionOnRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newStorm(t, dir, stm.TL2, 4, Options{Policy: FsyncOS, SnapshotEvery: -1})
	for i := 0; i < 200; i++ {
		if err := s.transfer(i%4, (i+1)%4); err != nil {
			t.Fatal(err)
		}
	}
	last := s.log.LastCSN()
	quiesce(t, s.log)
	inj := fault.New(&fault.Plan{Seed: 11, Events: []fault.Event{{Point: fault.WALTruncate, From: 0}}})
	_, rec, err := recoverDir(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Error("truncated log not reported torn")
	}
	if rec.LastCSN >= last {
		t.Errorf("truncation cut nothing: recovered %d of %d", rec.LastCSN, last)
	}
	s.log.Close()
}

func TestRegistryRejects(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterVar(reg, 1, stm.NewVar(0)); err != nil {
		t.Fatal(err)
	}
	if err := RegisterVar(reg, 1, stm.NewVar(0)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := RegisterVar(reg, 0, stm.NewVar(0)); err == nil {
		t.Error("zero ID accepted")
	}
	type opaque struct{ x int }
	if err := RegisterVar(reg, 2, stm.NewVar(opaque{})); err == nil {
		t.Error("unsupported element type accepted")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOS} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestApplyToZeroVar: containers embed their Vars by value and leave fresh
// ones zero, so registration must accept a never-written Var (its probe
// Peeks T's zero value) and recovery must be able to Set one: values logged
// through zero Vars come back into zero Vars of a new incarnation.
func TestApplyToZeroVar(t *testing.T) {
	for _, algo := range []stm.Algorithm{stm.TL2, stm.NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			dir := t.TempDir()
			type state struct{ a, b stm.Var[int64] }
			open := func() (*state, *stm.Runtime, *Log) {
				l, err := Open(Options{Dir: dir, Policy: FsyncOS})
				if err != nil {
					t.Fatal(err)
				}
				st, reg := &state{}, NewRegistry()
				if err := RegisterVar(reg, 1, &st.a); err != nil {
					t.Fatal(err)
				}
				if err := RegisterVar(reg, 2, &st.b); err != nil {
					t.Fatal(err)
				}
				if err := l.ApplyTo(reg); err != nil {
					t.Fatal(err)
				}
				rt := stm.New(stm.Config{Algorithm: algo})
				rt.AttachCommitSink(l)
				return st, rt, l
			}
			st, rt, l := open()
			for i := 0; i < 5; i++ {
				if err := rt.Atomic(func(tx *stm.Tx) error {
					st.a.Write(tx, st.a.Read(tx)+3)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			st2, _, l2 := open()
			defer l2.Close()
			if got := st2.a.Peek(); got != 15 {
				t.Fatalf("recovered a = %d, want 15", got)
			}
			if got := st2.b.Peek(); got != 0 {
				t.Fatalf("never-written b = %d after recovery, want 0", got)
			}
		})
	}
}
