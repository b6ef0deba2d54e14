package stm

import (
	"errors"
	"testing"
	"unsafe"
)

// TestVarSize pins the per-location footprint. Containers embed Vars by value
// (DESIGN.md §8, Memory layout): every node field and every hash bucket pays
// this size, so growing varBase is a decision to take here, not an accident.
func TestVarSize(t *testing.T) {
	// Five words. Four would need the scalar word and the pointer slot to be
	// one field — an integer the collector would scan as a pointer, or a
	// pointer it would not scan at all.
	if got := unsafe.Sizeof(Var[int64]{}); got != 40 {
		t.Fatalf("Sizeof(Var[int64]) = %d, want 40 (meta, ptr, word, owner, durID)", got)
	}
	// A reader needs meta and one value slot: all three share the first 24
	// bytes, so a Var in an array of them straddles a cache line for a
	// pointer read only at one offset in eight.
	var b varBase
	if unsafe.Offsetof(b.meta) != 0 || unsafe.Offsetof(b.ptr) != 8 || unsafe.Offsetof(b.word) != 16 {
		t.Fatalf("varBase hot fields at %d/%d/%d, want 0/8/16",
			unsafe.Offsetof(b.meta), unsafe.Offsetof(b.ptr), unsafe.Offsetof(b.word))
	}
	if got := unsafe.Sizeof(writeEntry{}); got > 40 {
		t.Fatalf("Sizeof(writeEntry) = %d, want <= 40", got)
	}
	if got := unsafe.Sizeof(valueRead{}); got > 32 {
		t.Fatalf("Sizeof(valueRead) = %d, want <= 32", got)
	}
	if a, b := unsafe.Sizeof(Var[int64]{}), unsafe.Sizeof(Var[[4]string]{}); a != b {
		t.Fatalf("Var size depends on T: %d vs %d", a, b)
	}
}

type zeroHolder struct {
	n   Var[int64]
	p   Var[*int]
	s   Var[string]
	err Var[error] // interface-typed T: a never-written Var and a stored nil both read as nil
}

// TestZeroVar drives a never-initialized Var through the whole surface on
// both engines: it reads as T's zero value at version 0, takes transactional
// writes and quiescent Sets like a NewVar, and can be marked durable.
func TestZeroVar(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			var h zeroHolder
			if h.n.Peek() != 0 || h.p.Peek() != nil || h.s.Peek() != "" || h.err.Peek() != nil {
				t.Fatal("zero Vars do not Peek as zero values")
			}
			if v := h.n.Version(); v != 0 {
				t.Fatalf("zero Var version %d, want 0", v)
			}
			read := func(atomic func(func(*Tx) error) error) {
				t.Helper()
				if err := atomic(func(tx *Tx) error {
					if h.n.Read(tx) != 0 || h.p.Read(tx) != nil || h.s.Read(tx) != "" || h.err.Read(tx) != nil {
						t.Error("zero Vars do not Read as zero values")
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			read(rt.Atomic)
			read(rt.AtomicRO)

			// Read-modify-write straight off the zero value, with a
			// read-after-write inside the block.
			want := errors.New("stored")
			if err := rt.Atomic(func(tx *Tx) error {
				h.n.Write(tx, h.n.Read(tx)+7)
				h.s.Write(tx, h.s.Read(tx)+"x")
				h.err.Write(tx, want)
				if h.n.Read(tx) != 7 {
					t.Error("read-after-write on a zero Var")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if h.n.Peek() != 7 || h.s.Peek() != "x" || h.err.Peek() != want {
				t.Fatalf("after write: n=%d s=%q err=%v", h.n.Peek(), h.s.Peek(), h.err.Peek())
			}
			if v := h.n.Version(); v == 0 {
				t.Fatal("committed write left the version at 0")
			}
			// An interface-typed Var holding nil again reads as nil.
			if err := rt.Atomic(func(tx *Tx) error { h.err.Write(tx, nil); return nil }); err != nil {
				t.Fatal(err)
			}
			if h.err.Peek() != nil {
				t.Fatal("stored nil error does not read back as nil")
			}

			// Set on a zero Var, and a rolled-back write leaving one zero.
			x := 3
			h.p.Set(&x)
			if h.p.Peek() != &x {
				t.Fatal("Set on a zero Var lost the value")
			}
			var fresh Var[int64]
			boom := errors.New("user abort")
			if err := rt.Atomic(func(tx *Tx) error { fresh.Write(tx, 9); return boom }); err != boom {
				t.Fatalf("err = %v", err)
			}
			if fresh.Peek() != 0 || fresh.Version() != 0 {
				t.Fatalf("rolled-back write changed a zero Var: %d @%d", fresh.Peek(), fresh.Version())
			}

			// MarkDurable on a zero Var: its first commit reaches the sink.
			var d Var[int64]
			d.MarkDurable(42)
			sink := &recordingSink{}
			rt.AttachCommitSink(sink)
			if err := rt.Atomic(func(tx *Tx) error { d.Write(tx, d.Read(tx)+1); return nil }); err != nil {
				t.Fatal(err)
			}
			rt.AttachCommitSink(nil)
			if len(sink.ops) != 1 || sink.ops[0].ID != 42 || opValue[int64](sink.ops[0]) != 1 {
				t.Fatalf("sink saw %+v, want one op on ID 42 holding 1", sink.ops)
			}
		})
	}
}

// opValue reads a DurableOp's value back as T, the way a sink would.
func opValue[T any](op DurableOp) T { return fromRaw[T](raw{p: op.Ptr, w: op.Word}, kind(op.Kind)) }

type recordingSink struct {
	csn uint64
	ops []DurableOp
}

func (s *recordingSink) BeginCommit() uint64 { s.csn++; return s.csn }
func (s *recordingSink) Publish(_ uint64, ops []DurableOp) {
	s.ops = append(s.ops, ops...)
}
func (s *recordingSink) WaitDurable(uint64) {}

// TestNOrecValidatesNeverWrittenVar: NOrec's value log records the zero
// slots of a never-written Var, and validation must treat them like any
// other value — unchanged while nobody writes the Var (a commit elsewhere
// forces revalidation, which must pass), changed by its first write (the
// reader must abort and see the new value).
func TestNOrecValidatesNeverWrittenVar(t *testing.T) {
	rt := New(Config{Algorithm: NOrec})
	var zero, other Var[int64]
	var out Var[int64]

	commitElsewhere := func(v *Var[int64], val int64) {
		t.Helper()
		if err := rt.Atomic(func(in *Tx) error { v.Write(in, val); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	// Unrelated commit between the read and the next read: revalidation of
	// the zero value succeeds, no abort.
	before := rt.Stats()
	if err := rt.Atomic(func(tx *Tx) error {
		got := zero.Read(tx)
		commitElsewhere(&other, 1)
		out.Write(tx, got+other.Read(tx))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats()
	if after.Aborts != before.Aborts || after.Extensions == before.Extensions {
		t.Fatalf("unrelated commit: aborts %d->%d extensions %d->%d, want no abort and one revalidation",
			before.Aborts, after.Aborts, before.Extensions, after.Extensions)
	}
	if out.Peek() != 1 {
		t.Fatalf("out = %d, want 1", out.Peek())
	}

	// First write to the zero Var between read and commit: the logged zero
	// no longer matches, the attempt aborts, the retry reads 5.
	before = after
	if err := rt.Atomic(func(tx *Tx) error {
		got := zero.Read(tx)
		if tx.Attempt() == 0 {
			commitElsewhere(&zero, 5)
		}
		out.Write(tx, got)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after = rt.Stats()
	if after.Aborts != before.Aborts+1 {
		t.Fatalf("first write to a logged zero Var: aborts %d->%d, want exactly one", before.Aborts, after.Aborts)
	}
	if out.Peek() != 5 {
		t.Fatalf("out = %d, want 5 (the retry's read)", out.Peek())
	}
}
