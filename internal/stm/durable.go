package stm

import (
	"reflect"
	"unsafe"
)

// This file is the runtime's durability hook (DESIGN.md §13): an attached
// CommitSink observes every committed writer transaction that touched at
// least one durable location. The runtime itself knows nothing about disks,
// framing or fsync — internal/wal implements the sink; the contract here is
// purely about ordering:
//
//   - BeginCommit is called inside the commit critical section — after the
//     transaction has irrevocably won its commit (TL2: validated and past
//     the status CAS, which a blind block skips, with every write lock
//     still held; NOrec: the global sequence lock is held). A dependent transaction can only read or
//     overwrite this transaction's locations after that critical section
//     ends, and it draws its own CSN before ending its own — so commit
//     sequence numbers are monotone along every read-from and
//     overwrite dependency. Replaying records in CSN order therefore
//     reconstructs a state every prefix of which is consistent.
//   - Publish is called after the critical section (locks released), handing
//     over the committed values themselves: scalars by copy, wide values by
//     the address of their box, which is never written again. The ops slice
//     is only valid for the duration of the call (it is pooled with the Tx).
//     Every CSN drawn is published, by both commit paths: a sink may hold
//     back everything above a CSN it has not been handed yet, so a hole
//     would stall its durable watermark for good.
//   - WaitDurable is called last, outside all locks, and may block (group
//     commit with a synchronous fsync policy) or return immediately
//     (asynchronous policies).
//
// Read-only transactions and transactions whose write set contains no
// durable location never touch the sink; the only cost the hook adds to a
// non-durable writer commit is one atomic pointer load.

// DurableOp is one durable write within a committed transaction: the
// location's stable durable identity (assigned via Var.MarkDurable), the
// kind of its element type T, and the committed value where the location
// itself keeps it. For Bool through Complex64, Word holds the value's bytes:
// read it as *(*T)(unsafe.Pointer(&op.Word)). For Chan, Func, Map, Pointer
// and UnsafePointer, Ptr is the value. For every other kind Ptr is a *T to
// an immutable copy, safe to hold indefinitely; the containing slice is not.
type DurableOp struct {
	ID   uint64
	Kind reflect.Kind
	Word uint64
	Ptr  unsafe.Pointer
}

// CommitSink receives the durable write-sets of committed transactions in
// commit order. Implementations must be safe for concurrent use: BeginCommit
// runs inside commit critical sections on many goroutines at once, and
// Publish calls for different transactions may arrive out of CSN order (the
// critical sections end in CSN order, but the publishing goroutines race).
type CommitSink interface {
	// BeginCommit assigns the next commit sequence number. It is called with
	// the committing transaction's locks held and must be wait-free.
	BeginCommit() uint64

	// Publish hands over the committed durable writes for csn. ops is valid
	// only for the duration of the call; what its Ptr fields reference is
	// immutable and may be retained.
	Publish(csn uint64, ops []DurableOp)

	// WaitDurable blocks until csn is durable under the sink's policy (or
	// durability has been lost and the sink chooses not to block). It is
	// called outside all transaction locks.
	WaitDurable(csn uint64)
}

// AttachCommitSink installs (or, with nil, removes) the runtime's commit
// sink. Attach before concurrent transactions start: commits that overlap
// the attachment may or may not be observed, and the sink's CSN sequence
// only covers commits that load the new pointer.
func (rt *Runtime) AttachCommitSink(s CommitSink) {
	if s == nil {
		rt.sinkAtom.Store(nil)
		return
	}
	rt.sinkAtom.Store(&s)
}

// beginDurable collects the transaction's durable writes and, if there are
// any and a sink is attached, draws the commit sequence number. It must be
// called inside the commit critical section (see the package comment above);
// the write-set scan costs nothing when no sink is attached.
//
//rubic:noalloc
func (tx *Tx) beginDurable() {
	sp := tx.rt.sinkAtom.Load()
	if sp == nil {
		return
	}
	tx.durOps = tx.durOps[:0]
	for i := range tx.writes {
		if w := &tx.writes[i]; w.base.durID != 0 {
			//lint:ignore rubic/noalloc durable-op capacity is retained across pooled reuse; growth amortizes to zero
			tx.durOps = append(tx.durOps, DurableOp{ID: w.base.durID, Kind: reflect.Kind(w.k), Word: w.val.w, Ptr: w.val.p})
		}
	}
	if len(tx.durOps) == 0 {
		return
	}
	tx.sink = *sp
	tx.csn = tx.sink.BeginCommit()
}

// publishDurable hands the collected durable writes to the sink. Called
// after the commit critical section ends.
func (tx *Tx) publishDurable() {
	if tx.sink == nil {
		return
	}
	tx.sink.Publish(tx.csn, tx.durOps)
}

// waitDurable blocks until the committed transaction is durable under the
// sink's fsync policy. Called from Runtime.run with nothing held.
func (tx *Tx) waitDurable() {
	if tx.sink == nil {
		return
	}
	tx.sink.WaitDurable(tx.csn)
	tx.sink = nil
	tx.csn = 0
}
