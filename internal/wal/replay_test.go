package wal

import (
	"os"
	"path/filepath"
	"testing"

	"rubic/internal/stm"
)

// Differential replay tests: a canonical log is built frame by frame, so
// the exact state after any prefix of commits is computable. Recovery of a
// mutilated copy must always equal the oracle at whatever prefix length it
// reports — never a byte more, never a torn or corrupt record surfaced.

const canonicalRecords = 20

// canonicalOp returns record csn's single op: a write of var (csn-1)%3+1.
func canonicalOp(csn uint64) (id uint64, val int) {
	return (csn-1)%3 + 1, int(csn*7 + 1)
}

// buildCanonicalSegment encodes records 1..n as one segment's bytes, also
// returning the frame boundaries (offset of each frame's start, plus the
// final end offset) for boundary-aware mutations.
func buildCanonicalSegment(n int) (data []byte, bounds []int) {
	data = append(data, segMagic...)
	for csn := uint64(1); csn <= uint64(n); csn++ {
		bounds = append(bounds, len(data))
		id, val := canonicalOp(csn)
		payload, ok := appendRecord(nil, csn, []stm.DurableOp{opOf(id, val)})
		if !ok {
			panic("canonical record rejected by codec")
		}
		data = appendFrame(data, payload)
	}
	bounds = append(bounds, len(data))
	return data, bounds
}

// oracle returns the exact state after replaying records 1..n.
func oracle(n uint64) map[uint64]int {
	m := make(map[uint64]int)
	for csn := uint64(1); csn <= n; csn++ {
		id, val := canonicalOp(csn)
		m[id] = val
	}
	return m
}

// checkAgainstOracle decodes the recovered state and compares it with the
// oracle at rec.LastCSN.
func checkAgainstOracle(t *testing.T, state map[uint64][]byte, rec Recovered) {
	t.Helper()
	if rec.LastCSN > canonicalRecords {
		t.Fatalf("recovered CSN %d beyond the %d that exist", rec.LastCSN, canonicalRecords)
	}
	want := oracle(rec.LastCSN)
	if len(state) != len(want) {
		t.Fatalf("recovered %d locations, oracle has %d (prefix %d)", len(state), len(want), rec.LastCSN)
	}
	for id, raw := range state {
		got, err := decodeValue(raw)
		if err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if got != want[id] {
			t.Fatalf("id %d: recovered %v, oracle says %v (prefix %d)", id, got, want[id], rec.LastCSN)
		}
	}
}

func writeSegmentDir(t testing.TB, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayTruncationEveryOffset is the satellite's exhaustive sweep: cut
// the segment at every byte offset; recovery must yield exactly the frames
// wholly below the cut.
func TestReplayTruncationEveryOffset(t *testing.T) {
	data, bounds := buildCanonicalSegment(canonicalRecords)
	for off := 0; off <= len(data); off++ {
		state, rec, err := recoverDir(writeSegmentDir(t, data[:off]), nil)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		// Frames wholly contained in data[:off]: count bounds[i+1] <= off.
		var want uint64
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i+1] <= off {
				want = uint64(i + 1)
			}
		}
		if rec.LastCSN != want {
			t.Fatalf("offset %d: recovered prefix %d, want %d", off, rec.LastCSN, want)
		}
		// Clean shapes — empty file or a cut exactly on a frame boundary
		// (bounds[0] is the bare-magic case) — must not be flagged torn;
		// every mid-frame cut must be.
		clean := off == 0
		for _, b := range bounds {
			clean = clean || off == b
		}
		if rec.Torn == clean {
			t.Fatalf("offset %d: torn=%v, want %v (%s)", off, rec.Torn, !clean, rec.Note)
		}
		checkAgainstOracle(t, state, rec)
	}
}

// TestReplaySkipsCompactionDuplicates: records at or below the snapshot CSN
// reappearing at the head of a segment (the pre-rotation overlap shape) are
// skipped, and replay continues through them.
func TestReplaySkipsCompactionDuplicates(t *testing.T) {
	data, _ := buildCanonicalSegment(canonicalRecords)
	dir := writeSegmentDir(t, data)
	// Fake a snapshot at CSN 5 whose state is the oracle at 5.
	l := &Log{dir: dir, state: make(map[uint64][]byte)}
	for id, val := range oracle(5) {
		l.state[id] = encOf(val)
	}
	if err := l.writeSnapshotAt(5); err != nil {
		t.Fatal(err)
	}
	state, rec, err := recoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotCSN != 5 || rec.LastCSN != canonicalRecords {
		t.Fatalf("recovered snapshot=%d prefix=%d, want 5 and %d", rec.SnapshotCSN, rec.LastCSN, canonicalRecords)
	}
	if rec.Records != canonicalRecords-5 {
		t.Fatalf("replayed %d records over the snapshot, want %d", rec.Records, canonicalRecords-5)
	}
	checkAgainstOracle(t, state, rec)
}

// TestReplayStopsAtGap: a missing CSN ends the prefix even when valid
// frames follow — later records may depend on the lost one.
func TestReplayStopsAtGap(t *testing.T) {
	data, bounds := buildCanonicalSegment(canonicalRecords)
	// Splice out frame 8 (csn 8): bytes [bounds[7], bounds[8]).
	cut := append(append([]byte(nil), data[:bounds[7]]...), data[bounds[8]:]...)
	state, rec, err := recoverDir(writeSegmentDir(t, cut), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn || rec.LastCSN != 7 {
		t.Fatalf("gap at 8: recovered prefix %d (torn=%v), want 7 torn", rec.LastCSN, rec.Torn)
	}
	checkAgainstOracle(t, state, rec)
}

// FuzzWALReplay mutilates the canonical log — truncations, bit flips, byte
// overwrites, duplicated frames, wholesale garbage — and requires recovery
// to never panic and to equal the oracle at exactly the prefix it reports:
// an unacked (not-fully-written) commit must never surface, and no damaged
// record may leak into the state.
func FuzzWALReplay(f *testing.F) {
	data, bounds := buildCanonicalSegment(canonicalRecords)
	f.Add(uint8(0), uint32(0), uint8(0))
	f.Add(uint8(0), uint32(len(data)/2), uint8(0))
	f.Add(uint8(1), uint32(10), uint8(1))
	f.Add(uint8(1), uint32(len(data)-3), uint8(0x80))
	f.Add(uint8(2), uint32(3), uint8(9))
	f.Add(uint8(2), uint32(12), uint8(2))
	f.Add(uint8(3), uint32(len(segMagic)+2), uint8(0xFF))
	f.Add(uint8(4), uint32(64), uint8('R'))
	f.Fuzz(func(t *testing.T, op uint8, pos uint32, val uint8) {
		mut := append([]byte(nil), data...)
		switch op % 5 {
		case 0: // truncate at pos
			mut = mut[:int(pos)%(len(mut)+1)]
		case 1: // flip bit val%8 of byte pos
			i := int(pos) % len(mut)
			mut[i] ^= 1 << (val % 8)
		case 2: // duplicate frame val%n at the boundary pos%n
			fr := int(val) % canonicalRecords
			at := bounds[int(pos)%len(bounds)]
			frame := append([]byte(nil), mut[bounds[fr]:bounds[fr+1]]...)
			mut = append(append(append([]byte(nil), mut[:at]...), frame...), mut[at:]...)
		case 3: // overwrite byte pos with val
			i := int(pos) % len(mut)
			mut[i] = val
		case 4: // replace the whole file with repeated garbage
			n := int(pos) % 4096
			mut = make([]byte, n)
			for i := range mut {
				mut[i] = val
			}
		}
		state, rec, err := recoverDir(writeSegmentDir(t, mut), nil)
		if err != nil {
			// I/O-free here, so an error means hard corruption was refused —
			// acceptable; the contract is only "no panic, no bad state".
			return
		}
		checkAgainstOracle(t, state, rec)
	})
}

// TestOpenDropsSegmentsBeyondThePrefix: replay stopped inside the first of
// two segments, so the second holds records of a history that was never
// surfaced. Open must remove it with the rest: left behind, it would be
// replayed as CSNs 11..20 of the new history as soon as that reached 10.
func TestOpenDropsSegmentsBeyondThePrefix(t *testing.T) {
	data, bounds := buildCanonicalSegment(canonicalRecords)
	dir := writeSegmentDir(t, data[:bounds[7]+5]) // records 1..7 and a torn 8th
	later := append([]byte(segMagic), data[bounds[10]:]...)
	if err := os.WriteFile(filepath.Join(dir, segName(11)), later, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir, Policy: FsyncOS, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec := l.Recovered(); rec.LastCSN != 7 || !rec.Torn {
		t.Fatalf("recovered %+v, want the 7 whole records and a torn tail", rec)
	}
	for csn := uint64(8); csn <= 10; csn++ {
		l.Publish(l.BeginCommit(), []stm.DurableOp{opOf(1, 0)})
	}
	quiesce(t, l)
	// A kill here: the directory as it is, without Close's snapshot.
	_, rec, err := recoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastCSN != 10 || rec.Torn {
		t.Fatalf("recovered %+v, want exactly the 10 commits of the new history", rec)
	}
}
