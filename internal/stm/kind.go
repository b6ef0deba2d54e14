package stm

import (
	"reflect"
	"unsafe"
)

// kind is the reflect.Kind of a Var's element type, in one byte. It is a pure
// function of T — never stored per Var — and decides where the value lives
// (varBase): scalar kinds in the word slot, pointer kinds in the pointer
// slot, every other kind behind a box. The engines carry it only to pick the
// slot at write-back; a CommitSink gets it to pick its encoding.
type kind uint8

// scalar reports the pointer-free kinds of at most eight bytes, Bool through
// Complex64 in reflect's numbering: the value's bytes are the word.
//
//rubic:noalloc
func (k kind) scalar() bool { return k-kind(reflect.Bool) <= kind(reflect.Complex64-reflect.Bool) }

// pointer reports the kinds whose value is a single pointer word.
//
//rubic:noalloc
func (k kind) pointer() bool {
	const set = 1<<reflect.Chan | 1<<reflect.Func | 1<<reflect.Map | 1<<reflect.Pointer | 1<<reflect.UnsafePointer
	return 1<<k&set != 0
}

// typeHeader is the prefix of the runtime's type descriptor (internal/abi.Type)
// up to the kind byte. Reading it is the one dependence on runtime internals
// in this package: the language has no query for a type parameter's kind, and
// reflect's costs a call where this costs two loads on a path every Read and
// Write takes. init checks the layout against reflect's numbering.
type typeHeader struct {
	_, _    uintptr // Size_, PtrBytes
	_       uint32  // Hash
	_, _, _ uint8   // TFlag, Align_, FieldAlign_
	kind    uint8   // Kind_
}

const kindMask = 1<<5 - 1

// kindOf returns the kind of T given T's zero value: converted to an empty
// interface it carries T's type descriptor, except that an interface-typed
// T's zero value converts to the nil interface, which has none. The
// conversion happens in the caller — a Var method, whose dictionary names T
// directly — and the interface does not escape, so nothing is allocated.
//
//rubic:noalloc
func kindOf(zero any) kind {
	t := *(**typeHeader)(unsafe.Pointer(&zero))
	if t == nil {
		return kind(reflect.Interface)
	}
	return kind(t.kind & kindMask)
}

func init() {
	if kindOf(int64(0)) != kind(reflect.Int64) || kindOf((*int)(nil)) != kind(reflect.Pointer) || kindOf("") != kind(reflect.String) {
		panic("stm: the runtime's type descriptor layout changed under kindOf")
	}
}

// toRaw converts a value of kind k to engine form. A scalar and a pointer are
// copied into their word; any other T is copied into a fresh box, which is
// never written again once a commit or Set publishes it.
func toRaw[T any](val T, k kind) (r raw) {
	switch {
	case k.scalar():
		*(*T)(unsafe.Pointer(&r.w)) = val
	case k.pointer():
		r.p = *(*unsafe.Pointer)(unsafe.Pointer(&val))
	default:
		r.p = unsafe.Pointer(newBox(val))
	}
	return r
}

// newBox is the only allocation a write can cost, and only for a T that
// fits neither slot. A fresh box per write is what lets readers compare
// boxed values by address (raw).
func newBox[T any](val T) *T {
	p := new(T)
	*p = val
	return p
}

// fromRaw is toRaw's inverse. The zero raw — a never-written location —
// converts to T's zero value under every kind.
//
//rubic:noalloc
func fromRaw[T any](r raw, k kind) (val T) {
	switch {
	case k.scalar():
		val = *(*T)(unsafe.Pointer(&r.w))
	case k.pointer():
		val = *(*T)(unsafe.Pointer(&r.p))
	case r.p != nil:
		val = *(*T)(r.p)
	}
	return val
}
