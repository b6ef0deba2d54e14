package stm

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// lockedBit marks a varBase metadata word as write-locked. The remaining
// bits hold the location's commit version shifted left by one.
const lockedBit uint64 = 1

// varBase is the runtime representation of one transactional location: a
// versioned write-lock (meta), the value's own words, and the owning
// transaction while locked. It is the Go analogue of a SwissTM ownership
// record fused with its data word.
//
// Invariants:
//   - meta is either version<<1 (unlocked) or version<<1|lockedBit (locked,
//     version preserved from before the acquisition).
//   - While the locked bit is set, owner is the holder if the holder is a
//     publishing block (Tx.publishes), nil otherwise, and nil transiently
//     for a publishing holder too (between the acquiring CAS and the owner
//     store, or between the owner clear and the releasing store). While it
//     is clear, owner is nil. Tx.ownerless handles a locked nil owner.
//   - The value lives in exactly one of the two slots, chosen by T's kind
//     (kind.go): a scalar's bits in word, a pointer in ptr, and for any
//     other T the address of an immutable box in ptr. The other slot stays
//     zero for the life of the location. Only the lock holder stores to a
//     slot, during commit write-back; one atomic store publishes the whole
//     value, so concurrent optimistic readers never observe a torn one.
//   - The zero varBase is a valid, never-written location: version 0,
//     unlocked, and zero slots that every accessor turns into T's zero
//     value. Containers rely on it to embed Vars by value in nodes and
//     bucket arrays without a per-Var allocation or init loop (DESIGN.md §8).
//
// The struct is five words, the three a reader chooses from first;
// var_test.go pins the size, because every container node pays it per field.
type varBase struct {
	meta atomic.Uint64
	// ptr is accessed only through load and store below (sync/atomic has no
	// type-erased pointer type; rubic/atomicmix checks the discipline).
	ptr   unsafe.Pointer
	word  atomic.Uint64
	owner atomic.Pointer[Tx]

	// durID is the location's stable durable identity (0 = not durable).
	// Written only during quiescent registration (Var.MarkDurable) before
	// concurrent transactions start; read by every commit while a CommitSink
	// is attached.
	durID uint64
}

// raw is a value in the engines' form: the contents of a location's two
// slots. Values of one location always differ in the same slot, so comparing
// two raws compares scalars and pointers by value and boxes by identity.
type raw struct {
	p unsafe.Pointer
	w uint64
}

// load returns the location's current slots. Each is read atomically; the
// caller's protocol (meta sandwich, sequence lock) orders the pair.
//
//rubic:noalloc
func (b *varBase) load() raw {
	return raw{p: atomic.LoadPointer(&b.ptr), w: b.word.Load()}
}

// store publishes v into the slot k selects — the one place that maps a kind
// to a slot. The caller owns the location: its write lock, the NOrec
// sequence lock, or quiescence.
//
//rubic:noalloc
func (b *varBase) store(v raw, k kind) {
	if k.scalar() {
		b.word.Store(v.w)
	} else {
		atomic.StorePointer(&b.ptr, v.p)
	}
}

// disown clears the owner before the lock holder releases the location. A
// blind holder never stored one, so the load saves it the store.
//
//rubic:noalloc
func (b *varBase) disown() {
	if b.owner.Load() != nil {
		b.owner.Store(nil)
	}
}

// sampleSpinBudget is how many times sampleConsistent re-polls a locked
// location before starting to yield. A commit write-back holds a lock for
// tens of nanoseconds, so a short spin almost always suffices; past the
// budget the owner is evidently descheduled and burning the core would only
// keep it off the processor (on GOMAXPROCS=1 a pure spin never terminates).
const sampleSpinBudget = 64

// sampleConsistent performs a lock-free consistent read of (value, version)
// outside any transaction, retrying across concurrent commits. A locked
// location is re-polled up to sampleSpinBudget times, then each further
// probe yields the processor so the lock owner can run and release.
func (b *varBase) sampleConsistent() (raw, uint64) {
	for spins := 0; ; spins++ {
		m1 := b.meta.Load()
		if m1&lockedBit != 0 {
			if spins >= sampleSpinBudget {
				runtime.Gosched()
			}
			continue
		}
		v := b.load()
		m2 := b.meta.Load()
		if m1 == m2 {
			return v, m1 >> 1
		}
	}
}

// Var is a typed transactional variable. All access from concurrent code
// must go through a transaction (Read/Write); Peek and Set are provided for
// quiescent phases such as initialization and post-run verification.
//
// The zero Var is ready to use and holds T's zero value, so a Var can be a
// struct field or array element. A Var must not be copied after first use
// (go vet's copylocks check and rubic-lint's atomicmix enforce it).
type Var[T any] struct {
	base varBase
}

// NewVar returns a transactional variable holding init.
func NewVar[T any](init T) *Var[T] {
	v := &Var[T]{}
	v.Set(init)
	return v
}

// Read returns the variable's value as seen by tx, recording the read for
// commit-time validation. It panics with an internal conflict signal (caught
// by Runtime.Atomic, which retries the transaction) when a consistent value
// cannot be obtained.
func (v *Var[T]) Read(tx *Tx) T {
	var zero T
	return fromRaw[T](tx.read(&v.base), kindOf(zero))
}

// Write buffers a new value for the variable in tx. The write lock is
// acquired eagerly (SwissTM style); the value itself is published only if
// the transaction commits.
func (v *Var[T]) Write(tx *Tx, val T) {
	var zero T
	k := kindOf(zero)
	tx.write(&v.base, toRaw(val, k), k)
}

// Peek returns the variable's current committed value without a transaction.
// The read is individually consistent but carries no ordering guarantee with
// respect to other variables; use it only outside transactional phases.
func (v *Var[T]) Peek() T {
	var zero T
	r, _ := v.base.sampleConsistent()
	return fromRaw[T](r, kindOf(zero))
}

// Set stores a value without a transaction. It must only be used while no
// transaction can access the variable (e.g. single-threaded initialization);
// concurrent transactional use would bypass conflict detection.
func (v *Var[T]) Set(val T) {
	var zero T
	k := kindOf(zero)
	v.base.store(toRaw(val, k), k)
}

// Version returns the variable's current commit version, mainly for tests
// and diagnostics.
func (v *Var[T]) Version() uint64 {
	_, ver := v.base.sampleConsistent()
	return ver
}

// MarkDurable assigns the variable a stable durable identity: committed
// writes to it are handed to the runtime's CommitSink under this ID, and
// recovery addresses it by the same ID. IDs must be nonzero, unique within a
// log, and stable across process restarts (derive them from the workload's
// own structure, not from allocation order of unrelated objects). Call only
// during quiescent phases — registration races with running transactions are
// not detected.
func (v *Var[T]) MarkDurable(id uint64) {
	if id == 0 {
		panic("stm: durable ID must be nonzero")
	}
	v.base.durID = id
}

// DurableID returns the identity assigned by MarkDurable, or 0.
func (v *Var[T]) DurableID() uint64 { return v.base.durID }
