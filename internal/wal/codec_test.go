package wal

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"rubic/internal/stm"
)

// captureSink keeps the ops of the last commit it saw.
type captureSink struct{ ops []stm.DurableOp }

func (s *captureSink) BeginCommit() uint64 { return 1 }
func (s *captureSink) Publish(_ uint64, ops []stm.DurableOp) {
	s.ops = append(s.ops[:0], ops...)
}
func (s *captureSink) WaitDurable(uint64) {}

// opOf returns the DurableOp a commit of val to a durable Var[T] publishes,
// by making that commit. What its Ptr references is immutable, so the op
// stays valid after the call.
func opOf[T any](id uint64, val T) stm.DurableOp {
	rt := stm.New(stm.Config{})
	sink := &captureSink{}
	rt.AttachCommitSink(sink)
	var v stm.Var[T]
	v.MarkDurable(id)
	if err := rt.Atomic(func(tx *stm.Tx) error { v.Write(tx, val); return nil }); err != nil {
		panic(err)
	}
	return sink.ops[0]
}

// encOf is val's tagged encoding as a commit would log it.
func encOf[T any](val T) []byte {
	op := opOf(1, val)
	b, ok := appendOp(nil, &op)
	if !ok {
		panic("codec rejected the value")
	}
	return b
}

// codecCase commits each value to its own durable Var[T], and after a close
// and a recovery into fresh Vars expects every one back.
type codecCase[T any] struct {
	vals []T
	same func(a, b T) bool
}

func (c codecCase[T]) run(t *testing.T, algo stm.Algorithm) {
	dir := t.TempDir()
	open := func() ([]stm.Var[T], *stm.Runtime, *Log) {
		l, err := Open(Options{Dir: dir, Policy: FsyncOS})
		if err != nil {
			t.Fatal(err)
		}
		vars, reg := make([]stm.Var[T], len(c.vals)), NewRegistry()
		for i := range vars {
			if err := RegisterVar(reg, uint64(i+1), &vars[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.ApplyTo(reg); err != nil {
			t.Fatal(err)
		}
		rt := stm.New(stm.Config{Algorithm: algo})
		rt.AttachCommitSink(l)
		return vars, rt, l
	}
	vars, rt, l := open()
	for i := range vars {
		if err := rt.Atomic(func(tx *stm.Tx) error { vars[i].Write(tx, c.vals[i]); return nil }); err != nil {
			t.Fatal(err)
		}
		b := encOf(c.vals[i])
		if n := valueLen(b); n != len(b) {
			t.Errorf("valueLen of value %d = %d, want %d", i, n, len(b))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if lost, err := l.Lost(); lost {
		t.Fatalf("log lost durability: %v", err)
	}
	vars, _, l = open()
	defer l.Close()
	if rec := l.Recovered(); rec.LastCSN != uint64(len(c.vals)) {
		t.Fatalf("recovered %d commits, want %d", rec.LastCSN, len(c.vals))
	}
	for i := range vars {
		if got := vars[i].Peek(); !c.same(got, c.vals[i]) {
			t.Errorf("value %d recovered as %#v, want %#v", i, got, c.vals[i])
		}
	}
}

func equal[T comparable](a, b T) bool { return a == b }

// TestValueCodecRoundtrip: every codec type, edge values included, survives
// commit → close → recover → ApplyTo on both engines.
func TestValueCodecRoundtrip(t *testing.T) {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	big := strings.Repeat("\x00rubic", 1<<16/6+1)[:1<<16]
	cases := map[string]interface {
		run(*testing.T, stm.Algorithm)
	}{
		"int":     codecCase[int]{[]int{0, -7, 1 << 40, math.MinInt}, equal[int]},
		"int64":   codecCase[int64]{[]int64{-1, 1 << 62, math.MinInt64}, equal[int64]},
		"uint64":  codecCase[uint64]{[]uint64{0, ^uint64(0)}, equal[uint64]},
		"float64": codecCase[float64]{[]float64{3.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8dead0000beef), math.Inf(-1)}, sameBits},
		"bool":    codecCase[bool]{[]bool{true, false}, equal[bool]},
		"string":  codecCase[string]{[]string{"", "hello", big}, equal[string]},
		"bytes":   codecCase[[]byte]{[][]byte{{}, {1, 2, 3}, []byte(big)}, bytes.Equal},
	}
	for name, c := range cases {
		for _, algo := range allocEngines {
			t.Run(name+"/"+algo.String(), func(t *testing.T) { c.run(t, algo) })
		}
	}
}

type namedInt64 int64

// TestRegisterVarDecidesFromType: an element type recovery cannot restore is
// refused at registration, whatever value the Var holds — including a named
// type whose kind the encoder would accept, and an interface type holding a
// codec type today. A Var marked durable behind the registry's back costs
// the log its durability at the first commit instead of a wrong recovery.
func TestRegisterVarDecidesFromType(t *testing.T) {
	reg := NewRegistry()
	rejected := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, errUnsupportedType) {
			t.Errorf("%s: RegisterVar = %v, want errUnsupportedType", name, err)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the type %s", err, name)
		}
	}
	rejected("wal.namedInt64", RegisterVar(reg, 1, stm.NewVar(namedInt64(3))))
	rejected("interface {}", RegisterVar(reg, 2, stm.NewVar[any](int64(3))))
	rejected("error", RegisterVar(reg, 3, stm.NewVar[error](nil)))
	rejected("[]int", RegisterVar(reg, 4, stm.NewVar([]int{1})))
	rejected("*int", RegisterVar(reg, 5, stm.NewVar(new(int))))
	if reg.Len() != 0 {
		t.Errorf("%d rejected Vars were registered", reg.Len())
	}

	for _, op := range []stm.DurableOp{opOf(1, any(int64(3))), opOf(1, new(int)), opOf(1, int32(3))} {
		if b, ok := appendOp(nil, &op); ok || len(b) != 1 || b[0] != tagNull {
			t.Errorf("appendOp of a %v op = %v, %v; want tagNull, false", op.Kind, b, ok)
		}
	}
}
