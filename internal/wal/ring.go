package wal

import (
	"sync"
	"sync/atomic"

	"rubic/internal/stm"
)

// ring is the bounded hand-off between committing goroutines and the log
// goroutine, and the commit sequence number is the ticket: record n lives in
// slots[n&mask], so slot order is CSN order and nobody claims, reorders or
// recycles anything. The committer holding CSN n waits until record n-size
// has been consumed (n-freed <= size), encodes in place and publishes with
// seq.Store(n); the logger frames slots[next&mask] while its seq equals next
// and never writes a slot — it publishes how far it has read in freed, every
// freedEvery records and at the end of a gather. A CSN drawn and not yet
// published is a slot the logger stops at; CSNs start at 1, so a zeroed slot
// and a slot still holding the previous lap's record both read as
// unpublished.
//
// A record certain to fit inlineCap bytes (fitsInline: the kv write) sits in
// the slot itself, one cache line written per record; any other goes to the
// overflow buffer of its slot index, whose capacity is retained, so
// steady-state publication allocates nothing either way.
type ring struct {
	// Fixed by newRing (over by the first overflow record).
	mask     uint64
	size     uint64
	wakeAt   uint64 // backlog at which a producer signals a sleeping consumer
	slots    []rslot
	over     [][]byte
	overOnce sync.Once

	// Written by the consumer, read by producers per record: on a line of
	// their own, off the fields above, which producers only read.
	_      [64]byte
	freed  atomic.Uint64 // every record up to this CSN has been consumed
	asleep atomic.Bool   // the consumer is blocked waiting for a signal
	_      [64 - 9]byte
}

const (
	slotBytes  = 32
	inlineCap  = slotBytes - 8 - 4
	freedEvery = 64
)

type rslot struct {
	seq  atomic.Uint64 // CSN of the record held, once published
	n    uint32        // its length in data; 0 when it is in ring.over instead
	data [inlineCap]byte
}

// newRing returns a ring with capacity rounded up to a power of two whose
// first record will be start+1. A sleeping consumer is signalled at half
// capacity: the other half is the producers' headroom while it wakes up and
// drains.
func newRing(capacity int, start uint64) *ring {
	size := 2
	for size < capacity {
		size <<= 1
	}
	r := &ring{mask: uint64(size - 1), size: uint64(size), wakeAt: uint64(size / 2), slots: make([]rslot, size)}
	r.freed.Store(start)
	return r
}

// put encodes record csn into its slot and publishes it; the caller has seen
// csn-freed <= size. It reports whether every op had a supported type.
//
//rubic:noalloc
func (r *ring) put(csn uint64, ops []stm.DurableOp) bool {
	i := csn & r.mask
	s := &r.slots[i]
	var ok bool
	if fitsInline(ops) {
		var b []byte
		b, ok = appendRecord(s.data[:0], csn, ops)
		s.n = uint32(len(b))
	} else {
		ok = r.putOver(i, csn, ops)
		s.n = 0
	}
	s.seq.Store(csn)
	return ok
}

// putOver encodes a record that may not fit its slot into the slot index's
// overflow buffer. The buffer array is built by the first such record: a log
// of small records never pays for it.
func (r *ring) putOver(i, csn uint64, ops []stm.DurableOp) (ok bool) {
	r.overOnce.Do(func() { r.over = make([][]byte, len(r.slots)) })
	r.over[i], ok = appendRecord(r.over[i][:0], csn, ops)
	return ok
}

// get returns record csn's payload if it has been published; the bytes stay
// valid until freed passes csn. Single consumer only.
func (r *ring) get(csn uint64) (payload []byte, ok bool) {
	i := csn & r.mask
	s := &r.slots[i]
	if s.seq.Load() != csn {
		return nil, false
	}
	if s.n != 0 {
		return s.data[:s.n], true
	}
	return r.over[i], true
}

// wakeDue reports whether the producer that just published with backlog
// records outstanding should signal the consumer: the backlog has reached
// wakeAt and the consumer is asleep. The CAS hands the duty to exactly one
// producer per sleep.
//
//rubic:noalloc
func (r *ring) wakeDue(backlog uint64) bool {
	return backlog >= r.wakeAt && r.asleep.Load() && r.asleep.CompareAndSwap(true, false)
}
