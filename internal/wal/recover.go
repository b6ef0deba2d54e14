package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rubic/internal/fault"
)

// Recovery rebuilds the durable prefix: load the snapshot, then replay the
// segments above it in start-CSN order, enforcing exact CSN contiguity. The
// prefix ends at the first torn frame, damaged record or CSN gap — nothing
// past that point is surfaced, so an unacked (never fully written) commit
// can never appear in the recovered state, and every acked commit below the
// stopping point is present by construction.

// recoverDir reconstructs the state image from dir. The returned Recovered
// describes the prefix; err is reserved for I/O and hard-corruption
// failures (a torn tail is normal operation after a crash, not an error).
func recoverDir(dir string, inj *fault.Injector) (map[uint64][]byte, Recovered, error) {
	state, snapCSN, err := readSnapshot(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	rec := Recovered{SnapshotCSN: snapCSN, LastCSN: snapCSN}

	type seg struct {
		name  string
		start uint64
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, rec, fmt.Errorf("wal: %w", err)
	}
	var segs []seg
	for _, e := range entries {
		if start, ok := parseSegName(e.Name()); ok {
			segs = append(segs, seg{name: e.Name(), start: start})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	next := snapCSN + 1
	for i, s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, s.name))
		if err != nil {
			return nil, rec, fmt.Errorf("wal: %w", err)
		}
		if i == len(segs)-1 {
			if fired, occ := inj.FireN(fault.WALTruncate); fired {
				cut := 1 + int(inj.Payload(fault.WALTruncate, occ)%128)
				if cut > len(data) {
					cut = len(data)
				}
				data = data[:len(data)-cut]
			}
		}
		var records uint64
		var torn bool
		var note string
		next, records, torn, note = replaySegment(data, state, next)
		rec.Records += records
		if torn {
			rec.Torn = true
			rec.Note = s.name + ": " + note
			break
		}
	}
	rec.LastCSN = next - 1
	return state, rec, nil
}

// replaySegment applies one segment's records to the state image starting
// at CSN next. It returns the new next, the number of records applied, and
// whether (and why) the durable prefix ends inside this segment. Records
// below next are compaction-era duplicates and are skipped; a record above
// next is a gap — evidence the file set is inconsistent — and ends the
// prefix just like a torn frame does.
//
//rubic:deterministic
func replaySegment(data []byte, state map[uint64][]byte, next uint64) (uint64, uint64, bool, string) {
	if len(data) == 0 {
		// A crash between segment creation and the header write.
		return next, 0, false, ""
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return next, 0, true, "bad segment header"
	}
	off := len(segMagic)
	var records uint64
	for off < len(data) {
		payload, n, ok := nextFrame(data, off)
		if !ok {
			return next, records, true, fmt.Sprintf("torn frame at byte %d", off)
		}
		csn, err := walkRecord(payload, nil)
		if err != nil {
			return next, records, true, fmt.Sprintf("damaged record at byte %d: %v", off, err)
		}
		if csn < next {
			off = n
			continue
		}
		if csn > next {
			return next, records, true, fmt.Sprintf("CSN gap at byte %d: want %d, found %d", off, next, csn)
		}
		walkRecord(payload, func(id uint64, val []byte) { foldOp(state, id, val) })
		next++
		records++
		off = n
	}
	return next, records, false, ""
}
