package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rubic/internal/fault"
	"rubic/internal/stm"
)

// Tests for the committer/logger hand-off: coalesced wake-ups, the drain
// tick, parking backpressure and size-proportional compaction.

// atProcs runs f at GOMAXPROCS 1 and 2: the hand-off is between goroutines,
// and with one processor the logger only runs when a committer blocks.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

var asyncPolicies = []FsyncPolicy{FsyncOS, FsyncInterval}

// TestIsolatedCommitReachesWatermark: under the asynchronous policies
// Publish does not wake the logger, so the drain tick alone must carry a
// lone commit to the watermark — within two intervals.
func TestIsolatedCommitReachesWatermark(t *testing.T) {
	const interval = 100 * time.Millisecond
	atProcs(t, func(t *testing.T) {
		for _, policy := range asyncPolicies {
			t.Run(policy.String(), func(t *testing.T) {
				s := newStorm(t, t.TempDir(), stm.TL2, 2, Options{Policy: policy, Interval: interval})
				defer s.log.Close()
				start := time.Now()
				if err := s.transfer(0, 1); err != nil {
					t.Fatal(err)
				}
				for s.log.DurableCSN() < 1 {
					if time.Since(start) > 2*interval {
						t.Fatalf("commit not durable %v after it was published (interval %v)", time.Since(start), interval)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	})
}

// TestCloseFlushesUntickedCommits: commits that neither reached the wake
// threshold nor saw a tick sit in the ring; Close must write them all out
// and leave a snapshot that recovers every one.
func TestCloseFlushesUntickedCommits(t *testing.T) {
	const n = 100
	atProcs(t, func(t *testing.T) {
		for _, policy := range asyncPolicies {
			t.Run(policy.String(), func(t *testing.T) {
				dir := t.TempDir()
				s := newStorm(t, dir, stm.TL2, 4, Options{Policy: policy, Interval: time.Hour})
				for i := 0; i < n; i++ {
					if err := s.transfer(i%4, (i+1)%4); err != nil {
						t.Fatal(err)
					}
				}
				if got := s.log.DurableCSN(); got != 0 {
					t.Errorf("watermark %d before any tick or wake, want 0", got)
				}
				if err := s.log.Close(); err != nil {
					t.Fatal(err)
				}
				if last, durable := s.log.LastCSN(), s.log.DurableCSN(); last != n || durable != n {
					t.Fatalf("after Close: last %d durable %d, want both %d", last, durable, n)
				}
				if got := s.log.Batches(); got != 1 {
					t.Errorf("%d un-ticked commits took %d write calls, want 1", n, got)
				}
				s2, rec := recoverInto(t, dir, stm.TL2, 4, 100)
				defer s2.log.Close()
				if rec.LastCSN != n || rec.SnapshotCSN != n || rec.Records != 0 {
					t.Fatalf("recovered %+v, want everything from a snapshot at %d", rec, n)
				}
				if got := s2.total(); got != 4*100 {
					t.Errorf("recovered total %d, want %d", got, 4*100)
				}
			})
		}
	})
}

// TestAlwaysRoundTripHasNoTick: a lone FsyncAlways committer is blocked in
// WaitDurable on its own record, so nothing but Publish's wake can move it.
// With an interval of an hour, a tick anywhere in its path hangs the test.
func TestAlwaysRoundTripHasNoTick(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		s := newStorm(t, t.TempDir(), stm.TL2, 2, Options{Policy: FsyncAlways, Interval: time.Hour})
		defer s.log.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				if err := s.transfer(0, 1); err != nil {
					t.Error(err)
					return
				}
				if d, want := s.log.DurableCSN(), uint64(i+1); d != want {
					t.Errorf("commit %d returned with watermark %d", want, d)
					return
				}
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("FsyncAlways commit waited for something other than the logger's round trip")
		}
	})
}

// TestParkedCommitterReleasedWithoutDrain: with no log goroutine to free a
// slot, a committer parked on a full ring can only be released by markLost
// or Close — and must then drop its record, not wait, as must every
// committer after it.
func TestParkedCommitterReleasedWithoutDrain(t *testing.T) {
	releases := map[string]func(l *Log){
		"markLost": func(l *Log) { l.markLost(errors.New("test: disk gone")) },
		"Close":    func(l *Log) { l.Close() },
	}
	for name, release := range releases {
		t.Run(name, func(t *testing.T) {
			l := &Log{
				opts:  Options{Policy: FsyncOS},
				ring:  newRing(2, 0),
				wake:  make(chan struct{}, 1),
				stopc: make(chan struct{}),
				done:  make(chan struct{}),
			}
			l.cond, l.space = sync.NewCond(&l.mu), sync.NewCond(&l.mu)
			close(l.done) // there is no log goroutine for Close to wait for
			ops := []stm.DurableOp{opOf(1, 1)}
			l.Publish(l.BeginCommit(), ops)
			l.Publish(l.BeginCommit(), ops)
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				l.Publish(l.BeginCommit(), ops)
			}()
			for l.RingFullWaits() == 0 {
				time.Sleep(time.Millisecond)
			}
			select {
			case <-returned:
				t.Fatal("Publish on a full ring returned before anything released it")
			case <-time.After(20 * time.Millisecond):
			}
			release(l)
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatalf("parked committer not released by %s", name)
			}
			// Nothing consumes the ring from here on, and nothing has to:
			// no later Publish may wait for room either.
			later := make(chan struct{})
			go func() {
				defer close(later)
				for i := 0; i < 8; i++ {
					l.Publish(l.BeginCommit(), ops)
				}
			}()
			select {
			case <-later:
			case <-time.After(10 * time.Second):
				t.Fatalf("Publish blocked on the full ring after %s", name)
			}
			if _, ok := l.ring.get(3); ok {
				t.Error("released committer published its record into a full ring")
			}
			if _, ok := l.ring.get(1); !ok {
				t.Error("released committer overwrote the unconsumed record whose slot it was waiting for")
			}
		})
	}
}

// TestFsyncErrorReleasesParkedCommitters: the same through the real
// pipeline — the first group fsync stalls (the tiny ring fills, committers
// park) and then fails, and every committer must keep going in memory.
func TestFsyncErrorReleasesParkedCommitters(t *testing.T) {
	inj := fault.New(&fault.Plan{Seed: 5, Events: []fault.Event{
		{Point: fault.WALFsyncStall, From: 0},
		{Point: fault.WALFsyncErr, From: 0},
	}})
	s := newStorm(t, t.TempDir(), stm.TL2, 4, Options{
		Policy: FsyncInterval, Interval: time.Millisecond, Faults: inj, RingSize: 8,
	})
	lost := make(chan struct{})
	s.log.SetLostHook(func(error) { close(lost) })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Commit until the log is lost, then some more in memory.
			for after := 0; after < 100; {
				if err := s.transfer(w, (w+1)%4); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-lost:
					after++
				default:
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("committers wedged on a full ring after the log was lost")
	}
	if s.log.RingFullWaits() == 0 {
		t.Error("no committer parked during the stalled fsync")
	}
	if err := s.log.Close(); err == nil {
		t.Error("Close after durability loss returned nil error")
	}
}

// referenceSnapshot is the from-scratch encoding of a state image: collect,
// sort, encode, frame. Snapshot files must equal it byte for byte whatever
// history produced the image.
func referenceSnapshot(at uint64, state map[uint64][]byte) []byte {
	ids := make([]uint64, 0, len(state))
	for id := range state {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	payload := binary.LittleEndian.AppendUint64(nil, at)
	payload = binary.AppendUvarint(payload, uint64(len(ids)))
	for _, id := range ids {
		payload = binary.AppendUvarint(payload, id)
		payload = append(payload, state[id]...)
	}
	buf := []byte(snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// TestSnapshotBytesDeterministic drives the logger's frame/snapshot steps
// directly: updates to known ids, ids that first appear late and out of
// order, and rounds that add none (the sorted list is reused as is). After
// every round the snapshot file must equal the reference encoding of an
// independently maintained copy of the state.
func TestSnapshotBytesDeterministic(t *testing.T) {
	dir := t.TempDir()
	recovered := map[uint64][]byte{}
	want := map[uint64][]byte{}
	for _, id := range []uint64{900, 3, 41} {
		// Two copies: the logger folds same-length values in place.
		recovered[id], want[id] = encOf(int(id)), encOf(int(id))
	}
	l := &Log{opts: Options{Policy: FsyncOS}, dir: dir, state: recovered, next: 1}
	rounds := [][]uint64{
		{3, 41, 3},              // no new id: first use builds the list
		{7000, 12, 3, 500},      // late ids, descending then ascending
		{12, 7000, 41},          // no new id: nothing to sort
		{1, 1 << 40, 2, 7000},   // new smallest and largest
		{900, 1 << 40, 1, 2, 3}, // no new id again
	}
	for round, ids := range rounds {
		for _, id := range ids {
			val := int(l.next)*31 + round
			payload, ok := appendRecord(nil, l.next, []stm.DurableOp{opOf(id, val)})
			if !ok {
				t.Fatal("codec rejected an int")
			}
			want[id] = encOf(val)
			l.frame(payload)
		}
		at := l.next - 1
		if err := l.writeSnapshotAt(at); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceSnapshot(at, want)) {
			t.Fatalf("round %d: snapshot differs from the from-scratch encoding of the same state", round)
		}
		if l.snapBytes != len(got) {
			t.Errorf("round %d: recorded snapshot size %d, file has %d", round, l.snapBytes, len(got))
		}
	}
}

// segmentBytes sums the sizes of dir's segment files.
func segmentBytes(t *testing.T, dir string) (total int64, segs int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		segs++
	}
	return total, segs
}

// quiesce waits for the logger to write out everything committed so far.
func quiesce(t *testing.T, l *Log) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for l.DurableCSN() < l.LastCSN() {
		if time.Now().After(deadline) {
			t.Fatalf("logger stuck: durable %d of %d", l.DurableCSN(), l.LastCSN())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultCompactionIsSizeProportional: at default options 300k small
// commits over 10k ids log ~11 MiB against a ~110 KiB image, so the size
// rule takes a snapshot per compactFloor of log, two in all — a fixed
// 16384-record period took 18. A kill at the end (the directory read
// underneath the live log) recovers the whole acked prefix from no more log
// than the rule allows.
func TestDefaultCompactionIsSizeProportional(t *testing.T) {
	const ids, commits = 10_000, 300_000
	dir := t.TempDir()
	s := newStorm(t, dir, stm.TL2, ids, Options{Policy: FsyncOS})
	prng := uint64(1)
	for i := 0; i < commits; i++ {
		prng = prng*6364136223846793005 + 1442695040888963407
		a := int(prng >> 33 % ids)
		if err := s.transfer(a, (a+1)%ids); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s.log)

	snaps := s.log.Snapshots()
	if snaps < 1 || snaps > 3 {
		t.Errorf("%d snapshots over %d default-option commits, want 1..3", snaps, commits)
	}
	if perBatch := float64(s.log.Records()) / float64(s.log.Batches()); perBatch < 100 {
		t.Errorf("%.1f records per batch from a lone committer, want >= 100", perBatch)
	}

	acked := s.log.DurableCSN()
	fi, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	logBytes, segs := segmentBytes(t, dir)
	// One record of overshoot past the threshold, plus the segment header.
	if bound := max(compactFloor, compactFactor*fi.Size()) + 1024; logBytes > bound || segs != 1 {
		t.Errorf("%d bytes of log in %d segments above a %d-byte snapshot, want one segment of at most %d",
			logBytes, segs, fi.Size(), bound)
	}
	_, rec, err := recoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastCSN != acked || rec.Torn || rec.Records != acked-rec.SnapshotCSN {
		t.Errorf("kill at watermark %d recovered %+v", acked, rec)
	}

	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := recoverInto(t, dir, stm.TL2, ids, 100)
	defer s2.log.Close()
	if rec.LastCSN != commits || s2.total() != ids*100 {
		t.Errorf("clean restart recovered %d commits, total %d; want %d and %d", rec.LastCSN, s2.total(), commits, ids*100)
	}
}

// TestExplicitSnapshotEveryCountsRecords: a positive SnapshotEvery means
// records, exactly, however many a single drain finds in the ring.
func TestExplicitSnapshotEveryCountsRecords(t *testing.T) {
	const every, commits = 16, 1000
	s := newStorm(t, t.TempDir(), stm.TL2, 4, Options{Policy: FsyncOS, SnapshotEvery: every})
	for i := 0; i < commits; i++ {
		if err := s.transfer(i%4, (i+1)%4); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, s.log)
	if got, want := s.log.Snapshots(), uint64(commits/every); got != want {
		t.Errorf("%d snapshots over %d commits at SnapshotEvery %d, want %d", got, commits, every, want)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.log.Snapshots(), uint64(commits/every+1); got != want {
		t.Errorf("%d snapshots after Close, want %d (the tail's)", got, want)
	}
}

// TestRecoversParentWrittenDirectory pins the on-disk formats across the
// hand-off rework in both directions. testdata/parent-log was written by
// the previous implementation (canonical records 1..20 at SnapshotEvery 8,
// copied without Close: a snapshot at CSN 16 and a segment holding 17..20);
// it must recover exactly. And the files this implementation writes for the
// same commits must be the bytes that implementation reads: the segment
// equals the frame-by-frame canonical encoding, the snapshot the reference
// one.
func TestRecoversParentWrittenDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{snapshotFile, segName(17)} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent-log", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	state, rec, err := recoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotCSN != 16 || rec.LastCSN != canonicalRecords || rec.Records != 4 || rec.Torn {
		t.Fatalf("parent-written directory recovered as %+v", rec)
	}
	checkAgainstOracle(t, state, rec)

	// The other direction: replay the same 20 commits through a live log.
	dir = t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: FsyncOS, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rt := stm.New(stm.Config{Algorithm: stm.TL2})
	reg := NewRegistry()
	vs := make([]*stm.Var[int], 3)
	for i := range vs {
		vs[i] = stm.NewVar(0)
		if err := RegisterVar(reg, uint64(i+1), vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rt.AttachCommitSink(l)
	for csn := uint64(1); csn <= canonicalRecords; csn++ {
		id, val := canonicalOp(csn)
		if err := rt.Atomic(func(tx *stm.Tx) error { vs[id-1].Write(tx, val); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	quiesce(t, l)
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := buildCanonicalSegment(canonicalRecords); !bytes.Equal(got, want) {
		t.Error("segment bytes differ from the canonical frame-by-frame encoding")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	for id, val := range oracle(canonicalRecords) {
		want[id] = encOf(val)
	}
	if !bytes.Equal(got, referenceSnapshot(canonicalRecords, want)) {
		t.Error("snapshot bytes differ from the reference encoding")
	}
}
