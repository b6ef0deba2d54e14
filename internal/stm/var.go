package stm

import (
	"runtime"
	"sync/atomic"
)

// lockedBit marks a varBase metadata word as write-locked. The remaining
// bits hold the location's commit version shifted left by one.
const lockedBit uint64 = 1

// varBase is the runtime representation of one transactional location: a
// versioned write-lock (meta), the owning transaction while locked, and the
// current value. It is the Go analogue of a SwissTM ownership record fused
// with its data word.
//
// Invariants:
//   - meta is either version<<1 (unlocked) or version<<1|lockedBit (locked,
//     version preserved from before the acquisition).
//   - While the locked bit is set, owner is nil only transiently (between
//     the acquiring CAS and the owner store, or between the owner clear and
//     the releasing store); readers observing nil simply retry.
//   - val is written only by the lock holder during commit write-back, and
//     is published with a fresh allocation so concurrent optimistic readers
//     never observe a torn value.
//   - The zero varBase is a valid, never-written location: version 0,
//     unlocked, and a nil val that every reader takes for T's zero value.
//     Containers rely on it to embed Vars by value in nodes and bucket
//     arrays without a per-Var allocation or init loop (DESIGN.md §8).
//
// The struct is four words; var_test.go pins the size, because every
// container node pays it per field.
type varBase struct {
	meta  atomic.Uint64
	owner atomic.Pointer[Tx]
	val   atomic.Pointer[any]

	// durID is the location's stable durable identity (0 = not durable).
	// Written only during quiescent registration (Var.MarkDurable) before
	// concurrent transactions start; read by every commit while a CommitSink
	// is attached.
	durID uint64
}

func (b *varBase) init(v any) {
	p := new(any)
	*p = v
	b.val.Store(p)
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
func (b *varBase) sampleConsistent() (any, uint64) {
	for spins := 0; ; spins++ {
		m1 := b.meta.Load()
		if m1&lockedBit != 0 {
			if spins >= sampleSpinBudget {
				runtime.Gosched()
			}
			continue
		}
		p := b.val.Load()
		m2 := b.meta.Load()
		if m1 == m2 {
			return unbox(p), m1 >> 1
		}
	}
}

// unbox returns the value a publication box holds; the nil box of a
// never-written location holds nothing, which Var's typed accessors turn
// into T's zero value.
//
//rubic:noalloc
func unbox(p *any) (v any) {
	if p != nil {
		v = *p
	}
	return v
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
	v.base.init(init)
	return v
}

// Read returns the variable's value as seen by tx, recording the read for
// commit-time validation. It panics with an internal conflict signal (caught
// by Runtime.Atomic, which retries the transaction) when a consistent value
// cannot be obtained.
func (v *Var[T]) Read(tx *Tx) T {
	val, _ := tx.read(&v.base).(T) // a never-written Var reads as the zero T
	return val
}

// Write buffers a new value for the variable in tx. The write lock is
// acquired eagerly (SwissTM style); the value itself is published only if
// the transaction commits.
func (v *Var[T]) Write(tx *Tx, val T) {
	tx.write(&v.base, val)
}

// Peek returns the variable's current committed value without a transaction.
// The read is individually consistent but carries no ordering guarantee with
// respect to other variables; use it only outside transactional phases.
func (v *Var[T]) Peek() T {
	val, _ := v.base.sampleConsistent()
	t, _ := val.(T)
	return t
}

// Set stores a value without a transaction. It must only be used while no
// transaction can access the variable (e.g. single-threaded initialization);
// concurrent transactional use would bypass conflict detection.
func (v *Var[T]) Set(val T) {
	v.base.init(val)
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
