package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rubic/internal/stm"
)

// TestSegmentBytesPinnedAcrossPublishOrder pins what the committer/logger
// hand-off may never change: whatever order records are published in and
// however the ring wraps, the segment is the frame-by-frame encoding of CSNs
// 1..n in order. Three producers share a ring of 8 slots; each group of three
// CSNs is published highest first, and the record shapes (a seeded mix of the
// 20-byte kv record, strings, byte slices and 8-op write sets) straddle any
// slot's inline capacity.
func TestSegmentBytesPinnedAcrossPublishOrder(t *testing.T) {
	const producers, groups = 3, 120
	shapes := [][]stm.DurableOp{
		{opOf(7, 123)},
		{opOf(9000, int64(-5))},
		{opOf(3, true)},
		{opOf(1<<40, "a string value longer than any inline slot")},
		{opOf(12, []byte{0xde, 0xad, 0xbe, 0xef})},
		{opOf(5, "")},
		{opOf(1, 1), opOf(2, 2.5), opOf(3, uint64(3)), opOf(4, "four"),
			opOf(5, 5), opOf(6, false), opOf(7, []byte("seven")), opOf(8, 8)},
	}
	prng := uint64(0x5eed)
	opsFor := make([][]stm.DurableOp, producers*groups+1)
	want := []byte(segMagic)
	for csn := uint64(1); csn < uint64(len(opsFor)); csn++ {
		prng = prng*6364136223846793005 + 1442695040888963407
		opsFor[csn] = shapes[prng>>33%uint64(len(shapes))]
		payload, ok := appendRecord(nil, csn, opsFor[csn])
		if !ok {
			t.Fatal("codec rejected a pinned shape")
		}
		want = appendFrame(want, payload)
	}

	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: FsyncOS, Interval: time.Millisecond, RingSize: 8, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var in [producers]chan uint64
	done := make(chan struct{})
	for p := range in {
		in[p] = make(chan uint64)
		go func(c chan uint64) {
			for csn := range c {
				l.Publish(csn, opsFor[csn])
				done <- struct{}{}
			}
		}(in[p])
	}
	for g := 0; g < groups; g++ {
		var csns [producers]uint64
		for p := range csns {
			csns[p] = l.BeginCommit()
		}
		for p := producers - 1; p >= 0; p-- {
			in[p] <- csns[p]
			<-done
		}
	}
	for p := range in {
		close(in[p])
	}
	quiesce(t, l)
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment is %d bytes, reference encoding of CSNs 1..%d is %d: contents differ", len(got), len(opsFor)-1, len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if last, durable := l.LastCSN(), l.DurableCSN(); last != producers*groups || durable != last {
		t.Errorf("after Close: last %d durable %d, want both %d", last, durable, producers*groups)
	}
}
