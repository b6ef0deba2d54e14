// Package wal is the durability layer behind internal/stm's CommitSink hook
// (DESIGN.md §13): each committing goroutine encodes its durable write-set
// into the ring slot its commit sequence number names, and one dedicated log
// goroutine reads the slots in that order, CRC-frames them, group-commits
// batches to an append-only segment file under a configurable fsync policy,
// periodically compacts the log into a snapshot of the materialized state,
// and — on restart — recovers exactly the durable prefix: every acked commit
// present, no unacked commit visible, never a torn or corrupt frame surfaced.
//
// # Scale-out notes (range-sharded runtimes)
//
// One Log serves one Runtime: commit sequence numbers are drawn inside that
// runtime's commit critical section (BeginCommit under the TL2 write locks
// or the NOrec sequence lock), which is what makes CSN order agree with
// commit order. A range-sharded runtime (stm.ShardedRuntime) has one such
// critical section per shard and none spanning them, so there are two sound
// deployments:
//
//   - Per-shard logs: attach an independent Log to each shard's Runtime
//     (one directory per shard). Each log's CSN sequence is exact for its
//     shard; recovery restores every shard to a consistent prefix of its
//     own history. Cross-shard transactions remain disallowed — the shards'
//     prefixes could otherwise disagree about one transaction.
//   - Single-shard gate: keep a single durable Runtime and no cross-shard
//     traffic. stm.AtomicAcross enforces this itself, returning
//     stm.ErrCrossShardDurable whenever any shard has a sink attached.
//
// A cross-shard durable commit would need a merged CSN drawn while every
// participating shard's critical section is held — a distributed-commit
// record this single-node log deliberately does not implement.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"unsafe"

	"rubic/internal/stm"
)

// Value type tags. The codec covers the scalar types the workloads keep in
// durable Vars; a durable Var of any other type is rejected at registration
// (RegisterVar), and a value that still sneaks through is encoded as
// tagNull, which recovery reports as loss instead of guessing.
const (
	tagNull byte = iota
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagBool
	tagString
	tagBytes
)

// Frame and file-format constants. A frame is [u32 payload length][u32
// CRC-32C of the payload][payload]; a record payload is [8-byte LE CSN]
// [uvarint op count][ops: uvarint durable ID, tagged value]. Segment and
// snapshot files open with an 8-byte magic that pins the format version.
const (
	frameHeader = 8
	maxFrame    = 1 << 24
	segMagic    = "RUBICWA1"
	snapMagic   = "RUBICSN1"
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errUnsupportedType = errors.New("wal: unsupported durable value type")

// appendUvarint appends v in unsigned LEB128, like binary.AppendUvarint but
// annotated for the hot path.
//
//rubic:noalloc
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
	return append(b, byte(v))
}

// wordAs reads a scalar op's value the way stm stored it: T's bytes at the
// word's address. With the *T conversions of op.Ptr in appendOp it is all the
// unsafe on the encode path.
//
//rubic:noalloc
func wordAs[T int | bool](op *stm.DurableOp) T {
	return *(*T)(unsafe.Pointer(&op.Word))
}

// appendWord appends a tagged eight-byte value.
//
//rubic:noalloc
func appendWord(b []byte, tag byte, w uint64) []byte {
	//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
	return binary.LittleEndian.AppendUint64(append(b, tag), w)
}

// appendBytes appends a tagged, length-prefixed string or byte slice.
//
//rubic:noalloc
func appendBytes[S string | []byte](b []byte, tag byte, x S) []byte {
	//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
	b = appendUvarint(append(b, tag), uint64(len(x)))
	//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
	return append(b, x...)
}

// appendOp appends one op's tagged value, straight from where the committed
// value lives; for the eight-byte kinds the word is the value's bits. The
// tags are those of the element types codecFor admits; RegisterVar lets no
// other type become durable, and an op of another kind that still arrives (a
// Var marked durable by hand) encodes as tagNull and reports false, which
// raises the durability-lost flag.
//
//rubic:noalloc
func appendOp(b []byte, op *stm.DurableOp) ([]byte, bool) {
	switch op.Kind {
	case reflect.Int:
		return appendWord(b, tagInt, uint64(int64(wordAs[int](op)))), true
	case reflect.Int64:
		return appendWord(b, tagInt64, op.Word), true
	case reflect.Uint64:
		return appendWord(b, tagUint64, op.Word), true
	case reflect.Float64:
		return appendWord(b, tagFloat64, op.Word), true
	case reflect.Bool:
		bit := byte(0)
		if wordAs[bool](op) {
			bit = 1
		}
		//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
		return append(b, tagBool, bit), true
	case reflect.String:
		return appendBytes(b, tagString, *(*string)(op.Ptr)), true
	case reflect.Slice: // []byte, the one slice type codecFor admits
		return appendBytes(b, tagBytes, *(*[]byte)(op.Ptr)), true
	}
	//lint:ignore rubic/noalloc encode buffers are ring-slot-retained; growth amortizes to zero
	return append(b, tagNull), false
}

// appendRecord encodes one committed durable write-set as a record payload.
// It runs on the committing goroutine (Log.Publish) into the record's ring
// slot, or into that slot's overflow buffer whose capacity is retained, so
// steady-state encoding allocates nothing.
//
//rubic:noalloc
func appendRecord(b []byte, csn uint64, ops []stm.DurableOp) ([]byte, bool) {
	b = binary.LittleEndian.AppendUint64(b, csn)
	b = appendUvarint(b, uint64(len(ops)))
	ok := true
	for i := range ops {
		b = appendUvarint(b, ops[i].ID)
		var vok bool
		b, vok = appendOp(b, &ops[i])
		ok = ok && vok
	}
	return b, ok
}

// fitsInline reports whether the record of ops is certain to encode in at
// most inlineCap bytes: 8 of CSN, 1 of op count, and one op of a fixed-width
// value (9 at most) at a durable ID of one or two bytes — the kv write.
//
//rubic:noalloc
func fitsInline(ops []stm.DurableOp) bool {
	return len(ops) == 1 && ops[0].ID < 1<<14 && ops[0].Kind != reflect.String && ops[0].Kind != reflect.Slice
}

// uvarint decodes an unsigned LEB128 from b, returning the value and the
// number of bytes consumed (0 on truncation or overflow).
//
//rubic:deterministic
//rubic:noalloc
func uvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i == 9 && c > 1 {
				return 0, 0 // overflows uint64
			}
			return v | uint64(c)<<shift, i + 1
		}
		if shift >= 63 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// valueLen returns the encoded length of the tagged value at b[0:], or -1
// when the bytes are truncated or the tag is unknown.
//
//rubic:deterministic
//rubic:noalloc
func valueLen(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	switch b[0] {
	case tagNull:
		return 1
	case tagInt, tagInt64, tagUint64, tagFloat64:
		if len(b) < 9 {
			return -1
		}
		return 9
	case tagBool:
		if len(b) < 2 {
			return -1
		}
		return 2
	case tagString, tagBytes:
		n, c := uvarint(b[1:])
		if c == 0 || uint64(len(b)) < 1+uint64(c)+n {
			return -1
		}
		return 1 + c + int(n)
	}
	return -1
}

// decodeValue decodes one tagged value into its Go representation. tagNull
// decodes to nil (the caller reports it as loss).
func decodeValue(b []byte) (any, error) {
	if n := valueLen(b); n < 0 || n != len(b) {
		return nil, fmt.Errorf("wal: malformed value encoding (%d bytes)", len(b))
	}
	switch b[0] {
	case tagNull:
		return nil, nil
	case tagInt:
		return int(int64(binary.LittleEndian.Uint64(b[1:]))), nil
	case tagInt64:
		return int64(binary.LittleEndian.Uint64(b[1:])), nil
	case tagUint64:
		return binary.LittleEndian.Uint64(b[1:]), nil
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b[1:])), nil
	case tagBool:
		return b[1] != 0, nil
	case tagString:
		_, c := uvarint(b[1:])
		return string(b[1+c:]), nil
	case tagBytes:
		_, c := uvarint(b[1:])
		return append([]byte(nil), b[1+c:]...), nil
	}
	return nil, errUnsupportedType
}

// walkRecord iterates the (id, encoded value) pairs of a record payload,
// calling visit for each. It validates the complete structure and returns
// the record's CSN; a malformed payload yields an error and no guarantee
// about prior visit calls (recovery discards the whole record).
//
//rubic:deterministic
func walkRecord(p []byte, visit func(id uint64, val []byte)) (uint64, error) {
	if len(p) < 8 {
		return 0, errors.New("wal: record shorter than its CSN")
	}
	csn := binary.LittleEndian.Uint64(p)
	rest := p[8:]
	nops, c := uvarint(rest)
	if c == 0 {
		return 0, errors.New("wal: malformed op count")
	}
	rest = rest[c:]
	for i := uint64(0); i < nops; i++ {
		id, c := uvarint(rest)
		if c == 0 || id == 0 {
			return 0, errors.New("wal: malformed op ID")
		}
		rest = rest[c:]
		n := valueLen(rest)
		if n < 0 {
			return 0, errors.New("wal: malformed op value")
		}
		if visit != nil {
			visit(id, rest[:n])
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return 0, errors.New("wal: trailing bytes after record ops")
	}
	return csn, nil
}

// appendFrame wraps payload in a length+CRC frame and appends it to b.
//
//rubic:noalloc
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	//lint:ignore rubic/noalloc batch buffer capacity is retained across batches; growth amortizes to zero
	return append(b, payload...)
}

// nextFrame extracts the frame starting at data[off:]. ok is false at a
// clean end of data and for every torn-tail shape — short header, impossible
// length, truncated payload, CRC mismatch — which recovery all treats the
// same way: the durable prefix ends here.
//
//rubic:deterministic
func nextFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off < 0 || len(data)-off < frameHeader {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	if n > maxFrame || len(data)-off-frameHeader < n {
		return nil, off, false
	}
	want := binary.LittleEndian.Uint32(data[off+4:])
	payload = data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}
