package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
)

// A snapshot is the materialized state image at one CSN, replacing every
// log record at or below it: [8-byte magic][u32 payload length][u32 CRC-32C]
// [payload], payload = [8-byte LE snapshot CSN][uvarint entry count]
// [entries: uvarint id, tagged value], entries sorted by id so the bytes
// are a deterministic function of the state. It is written to a temporary
// file, fsynced as the log's policy fsyncs segments (FsyncOS: not at all —
// the segments it replaces were never synced either), and renamed over
// dir/snapshot — the replacement is atomic, so recovery always finds either
// the old or the new snapshot intact.

const snapshotFile = "snapshot"

// sortedIDs returns the state image's ids in ascending order. The list is
// kept between snapshots: ids are never removed, so it is stale exactly when
// the image has grown, and a snapshot over an unchanged key set sorts
// nothing.
func (l *Log) sortedIDs() []uint64 {
	if len(l.ids) != len(l.state) {
		l.ids = l.ids[:0]
		for id := range l.state {
			l.ids = append(l.ids, id)
		}
		slices.Sort(l.ids)
	}
	return l.ids
}

// writeSnapshotAt persists the log goroutine's state image, which at call
// time equals an exact replay of CSNs 1..at.
func (l *Log) writeSnapshotAt(at uint64) error {
	ids := l.sortedIDs()
	buf := append(l.snapBuf[:0], snapMagic...)
	buf = append(buf, make([]byte, frameHeader)...) // length and CRC, set below
	buf = binary.LittleEndian.AppendUint64(buf, at)
	buf = appendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendUvarint(buf, id)
		buf = append(buf, l.state[id]...)
	}
	payload := buf[len(snapMagic)+frameHeader:]
	binary.LittleEndian.PutUint32(buf[len(snapMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(snapMagic)+4:], crc32.Checksum(payload, castagnoli))
	l.snapBuf = buf

	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if l.opts.Policy != FsyncOS {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: snapshot fsync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	l.syncDir()
	l.nSnapshots.Add(1)
	l.snapBytes = len(buf)
	l.sinceSnap, l.bytesSinceSnap = 0, 0
	return nil
}

// readSnapshot loads dir/snapshot. A missing file is an empty log; a
// damaged file is a hard error — the snapshot was renamed into place only
// after it was completely written (and, unless the policy is FsyncOS,
// fsynced), so damage means media corruption or a power cut under FsyncOS,
// and guessing would silently drop acked commits.
func readSnapshot(dir string) (map[uint64][]byte, uint64, error) {
	state := make(map[uint64][]byte)
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if os.IsNotExist(err) {
		return state, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot read: %w", err)
	}
	if len(data) < len(snapMagic)+frameHeader || string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("wal: snapshot corrupt: bad header")
	}
	body := data[len(snapMagic):]
	payload, _, ok := nextFrame(body, 0)
	if !ok {
		return nil, 0, fmt.Errorf("wal: snapshot corrupt: bad frame or CRC")
	}
	if len(payload) < 8 {
		return nil, 0, fmt.Errorf("wal: snapshot corrupt: short payload")
	}
	at := binary.LittleEndian.Uint64(payload)
	rest := payload[8:]
	count, c := uvarint(rest)
	if c == 0 {
		return nil, 0, fmt.Errorf("wal: snapshot corrupt: bad entry count")
	}
	rest = rest[c:]
	for i := uint64(0); i < count; i++ {
		id, c := uvarint(rest)
		if c == 0 || id == 0 {
			return nil, 0, fmt.Errorf("wal: snapshot corrupt: bad entry id")
		}
		rest = rest[c:]
		n := valueLen(rest)
		if n < 0 {
			return nil, 0, fmt.Errorf("wal: snapshot corrupt: bad entry value")
		}
		state[id] = append([]byte(nil), rest[:n]...)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("wal: snapshot corrupt: trailing bytes")
	}
	return state, at, nil
}
