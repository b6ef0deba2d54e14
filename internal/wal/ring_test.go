package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rubic/internal/fault"
	"rubic/internal/stm"
)

// Tests for the ticket ring: the commit sequence number is the slot, so
// these drive BeginCommit/Publish directly and hold the segment to the
// reference encoding of CSNs 1..n. Run them at -cpu 1,2,4 and under -race
// (make ring-soak).

// ringShapes mixes records that sit in their slot (the 20-byte kv record, a
// bool) with ones that overflow it (strings, byte slices, an 8-op write set).
func ringShapes() [][]stm.DurableOp {
	return [][]stm.DurableOp{
		{opOf(7, 123)},
		{opOf(41, "a string value that no slot holds inline")},
		{opOf(1<<14-1, -1)},
		{opOf(2, []byte("bytes, also too long for a slot"))},
		{opOf(3, true)},
		{opOf(1, 1), opOf(2, 2), opOf(3, 3), opOf(4, 4), opOf(5, 5), opOf(6, 6), opOf(7, 7), opOf(8, 8)},
		{opOf(9, "short")},
	}
}

// referenceSegment is the segment that holds records first..last, record csn
// carrying shapes[csn%len(shapes)].
func referenceSegment(t *testing.T, shapes [][]stm.DurableOp, first, last uint64) []byte {
	t.Helper()
	seg := []byte(segMagic)
	for csn := first; csn <= last; csn++ {
		payload, ok := appendRecord(nil, csn, shapes[csn%uint64(len(shapes))])
		if !ok {
			t.Fatal("codec rejected a test shape")
		}
		seg = appendFrame(seg, payload)
	}
	return seg
}

// TestFitsInlineIsABound: whatever fitsInline admits encodes within the slot
// — at the largest CSN, id and value it admits — and the kv record is
// admitted.
func TestFitsInlineIsABound(t *testing.T) {
	admitted := [][]stm.DurableOp{
		{opOf(1<<14-1, -1)}, {opOf(1<<14-1, uint64(1)<<63)}, {opOf(1<<14-1, int64(-1))}, {opOf(1<<14-1, -2.5)},
		{opOf(1<<14-1, true)}, {opOf(1, 1)},
		{opOf(5, struct{ a, b int }{1, 2})}, // unsupported: encodes as tagNull
	}
	for i, ops := range admitted {
		b, _ := appendRecord(nil, 1<<64-1, ops)
		if !fitsInline(ops) || len(b) > inlineCap {
			t.Errorf("shape %d: fitsInline %v, encodes to %d bytes (inlineCap %d)", i, fitsInline(ops), len(b), inlineCap)
		}
	}
	for i, ops := range [][]stm.DurableOp{
		{opOf(1<<14, 1)}, {opOf(1, "")}, {opOf(1, []byte{})}, {opOf(1, true), opOf(2, true)}, {},
	} {
		if fitsInline(ops) {
			t.Errorf("shape %d admitted: only one fixed-width op at a two-byte id is certain to fit", i)
		}
	}
}

// TestRingLayout pins the cache-line arithmetic the hand-off rests on.
func TestRingLayout(t *testing.T) {
	if sz := unsafe.Sizeof(rslot{}); sz != slotBytes || 64%sz != 0 {
		t.Errorf("Sizeof(rslot) = %d, want %d, a divisor of the cache line", sz, slotBytes)
	}
	for _, capacity := range []int{2, 8, defaultRingSize} {
		if a := uintptr(unsafe.Pointer(&newRing(capacity, 0).slots[0])); a%64 != 0 {
			t.Errorf("slot array of a %d-slot ring starts at %#x, not on a cache line", capacity, a)
		}
	}
	line := func(off uintptr) uintptr { return off / 64 }

	// BeginCommit's word: metrics.PaddedUint64 keeps it 64 bytes in with 56
	// behind it, so at offset 0 of a line-aligned Log it starts a line, and
	// wherever the allocator puts the Log nothing else is on that line.
	var l Log
	if off, sz := unsafe.Offsetof(l.csn), unsafe.Sizeof(l.csn); off != 0 || sz != 128 {
		t.Errorf("Log.csn at offset %d, %d bytes; want 0 and 128", off, sz)
	}
	// What committers read per Publish stays clear of what the logger writes
	// per record.
	loggerFirst := unsafe.Offsetof(l.f)
	for name, off := range map[string]uintptr{
		"next": unsafe.Offsetof(l.next), "sinceSnap": unsafe.Offsetof(l.sinceSnap), "batch": unsafe.Offsetof(l.batch),
	} {
		if off < loggerFirst {
			t.Errorf("Log.%s at %d precedes the logger-owned block at %d", name, off, loggerFirst)
		}
	}
	if read := unsafe.Offsetof(l.nRingFull) + unsafe.Sizeof(l.nRingFull); loggerFirst-read < 64 {
		t.Errorf("logger-owned block starts %d bytes after the shared fields, want a full line between them", loggerFirst-read)
	}

	// The consumer cursor and sleep flag — logger-written, committer-read —
	// share a line with each other and not with the fields committers only
	// read; the ring is its own allocation, so csn and the logger's
	// per-record fields are not in reach at all.
	var r ring
	if line(unsafe.Offsetof(r.freed)) != line(unsafe.Offsetof(r.asleep)) {
		t.Error("ring.freed and ring.asleep are on different lines")
	}
	if fixedEnd := unsafe.Offsetof(r.overOnce) + unsafe.Sizeof(r.overOnce); unsafe.Offsetof(r.freed)-fixedEnd < 64 {
		t.Errorf("ring.freed starts %d bytes after the read-only fields, want a full line between them", unsafe.Offsetof(r.freed)-fixedEnd)
	}
}

// TestRingPutGetAcrossLaps drives the ring alone: every shape, three laps of
// an 8-slot ring, each record read back as appendRecord would have written
// it, whether it sat in its slot or in the overflow buffer.
func TestRingPutGetAcrossLaps(t *testing.T) {
	shapes := ringShapes()
	r := newRing(8, 0)
	for csn := uint64(1); csn <= 3*r.size+5; csn++ {
		ops := shapes[csn%uint64(len(shapes))]
		if _, ok := r.get(csn); ok {
			t.Fatalf("record %d readable before it was published", csn)
		}
		if !r.put(csn, ops) {
			t.Fatalf("record %d: unsupported type", csn)
		}
		want, _ := appendRecord(nil, csn, ops)
		if got, ok := r.get(csn); !ok || !bytes.Equal(got, want) {
			t.Fatalf("record %d (%d bytes, inline capacity %d): read back %x, want %x", csn, len(want), inlineCap, got, want)
		}
		if _, ok := r.get(csn + r.size); ok {
			t.Fatalf("record %d's slot reads as record %d of the next lap", csn, csn+r.size)
		}
		r.freed.Store(csn)
	}
}

// TestRecoveredRingStartsMidLap: a log that recovered L commits hands out
// L+1 first, into slot (L+1)&mask of a zeroed ring whose cursor is already L
// — so the first lap neither waits for records that were never in this ring
// nor mistakes an empty slot for a published one.
func TestRecoveredRingStartsMidLap(t *testing.T) {
	for _, last := range []uint64{1, 5, 8, 13, 1 << 33} {
		r := newRing(8, last)
		if got := r.freed.Load(); got != last {
			t.Fatalf("L=%d: consumer cursor starts at %d", last, got)
		}
		for csn := last - min(last-1, r.size); csn <= last+r.size; csn++ {
			if _, ok := r.get(csn); ok {
				t.Fatalf("L=%d: empty ring reports record %d published", last, csn)
			}
		}
		r.put(last+1, ringShapes()[0])
		if s := &r.slots[(last+1)&r.mask]; s.seq.Load() != last+1 {
			t.Fatalf("L=%d: record %d is not in slot %d", last, last+1, (last+1)&r.mask)
		}
	}

	shapes := ringShapes()
	dir := t.TempDir()
	const first, second = 13, 40
	for _, span := range [][2]uint64{{1, first}, {first + 1, second}} {
		l, err := Open(Options{Dir: dir, Policy: FsyncOS, RingSize: 8, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		if got := l.LastCSN(); got != span[0]-1 {
			t.Fatalf("opened at CSN %d, want %d", got, span[0]-1)
		}
		for csn := span[0]; csn <= span[1]; csn++ {
			l.Publish(l.BeginCommit(), shapes[csn%uint64(len(shapes))])
		}
		quiesce(t, l)
		got, err := os.ReadFile(filepath.Join(dir, segName(span[0])))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceSegment(t, shapes, span[0], span[1])) {
			t.Fatalf("segment of CSNs %d..%d differs from the reference encoding", span[0], span[1])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, rec, err := recoverDir(dir, nil)
	if err != nil || rec.LastCSN != second || rec.Torn {
		t.Fatalf("recovered %+v (err %v), want the whole prefix %d", rec, err, second)
	}
}

// TestTinyRingsManyCommitters: four committers push 10k records of mixed
// shapes through rings of 2 and 8 slots while the first group fsyncs stall,
// so the ring is full again and again and a committer holding a CSN is
// routinely overtaken by three others. Nobody may wedge, and the segment
// must hold CSNs 1..n exactly once, in order, byte for byte.
func TestTinyRingsManyCommitters(t *testing.T) {
	const committers, commits = 4, 10_000
	shapes := ringShapes()
	for _, slots := range []int{2, 8} {
		dir := t.TempDir()
		inj := fault.New(&fault.Plan{Seed: 9, Events: []fault.Event{{Point: fault.WALFsyncStall, From: 0, Count: 3}}})
		l, err := Open(Options{
			Dir: dir, Policy: FsyncInterval, Interval: time.Millisecond, Faults: inj, RingSize: slots, SnapshotEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					csn := l.BeginCommit()
					if csn > commits {
						// Drawn past the end: publish it all the same, a CSN
						// never published would stall the watermark below it.
						l.Publish(csn, shapes[0])
						return
					}
					l.Publish(csn, shapes[csn%uint64(len(shapes))])
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("%d slots: committers wedged at CSN %d, watermark %d", slots, l.LastCSN(), l.DurableCSN())
		}
		quiesce(t, l)
		if lost, err := l.Lost(); lost {
			t.Fatalf("%d slots: %v", slots, err)
		}
		if l.RingFullWaits() == 0 {
			t.Errorf("%d slots: no committer ever parked", slots)
		}
		got, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSegment(t, shapes, 1, commits)
		if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
			t.Errorf("%d slots: segment does not start with the reference encoding of CSNs 1..%d", slots, commits)
		}
		if tail := referenceSegment(t, [][]stm.DurableOp{shapes[0]}, commits+1, commits+committers); !bytes.Equal(got[len(want):], tail[len(segMagic):]) {
			t.Errorf("%d slots: the %d closing records are not CSNs %d.. in order", slots, committers, commits+1)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
