package wal

import (
	"sync/atomic"

	"rubic/internal/metrics"
)

// ring is the bounded lock-free MPSC queue between committing goroutines and
// the log goroutine — a Vyukov-style array queue specialized to one
// consumer. Each slot carries a per-slot sequence word for the handshake and
// a retained payload buffer (allocated by its first record, so an idle ring
// costs only the slot array), and steady-state publication performs no
// allocation: producers CAS the enqueue cursor to claim a slot, encode their
// record into the slot's buffer in place, and publish it with a sequence
// store; the consumer frames the payload straight out of the slot into its
// batch and recycles the slot.
//
// The slot protocol: seq == index means free for the producer claiming that
// index; seq == index+1 means full, awaiting the consumer of that index;
// the consumer frees a slot for its next lap by storing index+capacity.
//
// The consumer side also carries the wake handshake (see Log.Publish and
// Log.run): drained is the consumer cursor as of its last drain and asleep
// says the consumer is blocked waiting for a signal. Both change once per
// drain, not once per record, so producers reading them stay in cache.
type ring struct {
	// Fixed by newRing.
	mask   uint64
	wakeAt uint64 // backlog at which a producer signals a sleeping consumer
	slots  []rslot

	enq metrics.PaddedUint64 // producers' claim cursor, alone on its line

	// Written by the consumer once per drain, read by producers per record.
	drained atomic.Uint64
	asleep  atomic.Bool

	// Consumer-owned and written per record: kept off the lines producers
	// read.
	_   [64]byte
	deq uint64
}

type rslot struct {
	seq atomic.Uint64
	buf []byte
}

// newRing returns a ring with capacity rounded up to a power of two. A
// sleeping consumer is signalled at half capacity: the other half is the
// producers' headroom while it wakes up and drains.
func newRing(capacity int) *ring {
	size := 2
	for size < capacity {
		size <<= 1
	}
	r := &ring{mask: uint64(size - 1), wakeAt: uint64(size / 2), slots: make([]rslot, size)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// claim reserves the next slot for the calling producer and returns it with
// its position; the producer fills s.buf and publishes with
// s.seq.Store(pos+1). A nil slot means the ring is full.
//
//rubic:noalloc
func (r *ring) claim() (s *rslot, pos uint64) {
	for {
		pos = r.enq.Load()
		s = &r.slots[pos&r.mask]
		switch seq := s.seq.Load(); {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				return s, pos
			}
		case int64(seq-pos) < 0: // still holds the previous lap's record
			return nil, 0
		}
		// Otherwise another producer took pos since enq was read: retry.
	}
}

// wakeDue reports whether the producer that just published position pos
// should signal the consumer: the backlog has reached wakeAt and the
// consumer is asleep. The CAS hands the duty to exactly one producer per
// sleep.
//
//rubic:noalloc
func (r *ring) wakeDue(pos uint64) bool {
	return pos+1-r.drained.Load() >= r.wakeAt && r.asleep.Load() && r.asleep.CompareAndSwap(true, false)
}

// head returns the oldest published payload without consuming it; the bytes
// stay valid until advance. ok is false when the ring is empty or the
// oldest claimed slot is not published yet. Single consumer only.
func (r *ring) head() (payload []byte, ok bool) {
	s := &r.slots[r.deq&r.mask]
	if s.seq.Load() != r.deq+1 {
		return nil, false
	}
	return s.buf, true
}

// advance recycles the slot head returned.
func (r *ring) advance() {
	r.slots[r.deq&r.mask].seq.Store(r.deq + r.mask + 1)
	r.deq++
}
