package stm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Where a Var keeps its value — its word, its pointer slot or a box — is
// chosen from T and must be invisible: these tests drive every storage class
// through the whole surface on both engines against plain Go values.

type reprNode struct {
	self *reprNode // stamped with its own address by newReprNode
	tag  uint64
}

func newReprNode() *reprNode {
	n := &reprNode{tag: 0xfeedface}
	n.self = n
	return n
}

func (n *reprNode) intact() bool { return n != nil && n.self == n && n.tag == 0xfeedface }

type reprByte uint8

type reprPair struct {
	p *int
	n int
}

// reprCase is one element type: a palette of distinct values (the zero
// value first) and how to tell two of them apart.
type reprCase[T any] struct {
	palette []T
	same    func(a, b T) bool
}

func reprEq[T comparable](a, b T) bool { return a == b }

func (c reprCase[T]) run(t *testing.T, algo Algorithm, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pick := func() T { return c.palette[rng.Intn(len(c.palette))] }
	rt := New(Config{Algorithm: algo})
	const n = 6
	vars := make([]*Var[T], n)
	model := make([]T, n)
	for i := range vars {
		vars[i] = new(Var[T]) // zero Vars: must read as T's zero, palette[0]
		model[i] = c.palette[0]
	}
	check := func(what string, i int, got, want T) {
		t.Helper()
		if !c.same(got, want) {
			t.Fatalf("seed %d: %s of var %d = %#v, model has %#v", seed, what, i, got, want)
		}
	}
	errAbort := errors.New("abort")
	for step := 0; step < 400; step++ {
		i := rng.Intn(n)
		switch rng.Intn(6) {
		case 0:
			model[i] = pick()
			vars[i] = NewVar(model[i])
		case 1:
			model[i] = pick()
			vars[i].Set(model[i])
		case 2:
			check("Peek", i, vars[i].Peek(), model[i])
		case 3:
			if err := rt.AtomicRO(func(tx *Tx) error {
				for j := range vars {
					check("AtomicRO Read", j, vars[j].Read(tx), model[j])
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		default:
			// A block of reads and writes against a private copy of the
			// model: reads see the block's own writes, the last write wins,
			// and nothing is visible unless the block commits.
			local := append([]T(nil), model...)
			abort := rng.Intn(4) == 0
			err := rt.Atomic(func(tx *Tx) error {
				for k := 0; k < 1+rng.Intn(8); k++ {
					j := rng.Intn(n)
					if rng.Intn(2) == 0 {
						local[j] = pick()
						vars[j].Write(tx, local[j])
					}
					check("Read in block", j, vars[j].Read(tx), local[j])
				}
				if abort {
					return errAbort
				}
				return nil
			})
			if abort != (err == errAbort) {
				t.Fatalf("seed %d: block returned %v, abort=%v", seed, err, abort)
			}
			if !abort {
				model = local
			}
		}
	}
	for i := range vars {
		check("final Peek", i, vars[i].Peek(), model[i])
	}
}

func TestRepresentationInvisible(t *testing.T) {
	x, y := new(int), new(int)
	n1, n2 := newReprNode(), newReprNode()
	m1, m2 := map[int]int{1: 1}, map[int]int{}
	e1, e2 := errors.New("one"), fmt.Errorf("two: %w", errors.New("inner"))
	sameMap := func(a, b map[int]int) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	cases := map[string]interface {
		run(*testing.T, Algorithm, int64)
	}{
		"int":       reprCase[int]{[]int{0, 1, -1, math.MaxInt, math.MinInt}, reprEq[int]},
		"int32":     reprCase[int32]{[]int32{0, 7, -7, math.MinInt32}, reprEq[int32]},
		"int64":     reprCase[int64]{[]int64{0, 1 << 40, -1, math.MinInt64}, reprEq[int64]},
		"named":     reprCase[reprByte]{[]reprByte{0, 1, 255}, reprEq[reprByte]},
		"bool":      reprCase[bool]{[]bool{false, true}, reprEq[bool]},
		"float64":   reprCase[float64]{[]float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), -2.5}, sameBits},
		"pointer":   reprCase[*reprNode]{[]*reprNode{nil, n1, n2}, reprEq[*reprNode]},
		"map":       reprCase[map[int]int]{[]map[int]int{nil, m1, m2}, sameMap},
		"string":    reprCase[string]{[]string{"", "a", "a longer string"}, reprEq[string]},
		"[4]string": reprCase[[4]string]{[][4]string{{}, {"a", "b", "c", "d"}, {"", "", "", "x"}}, reprEq[[4]string]},
		"struct":    reprCase[reprPair]{[]reprPair{{}, {x, 1}, {y, 1}, {nil, 2}}, reprEq[reprPair]},
		"error":     reprCase[error]{[]error{nil, e1, e2}, reprEq[error]},
		"any":       reprCase[any]{[]any{nil, 0, int64(1) << 40, "s", x, reprPair{y, 3}, e1}, reprEq[any]},
	}
	for name, c := range cases {
		for _, algo := range allocEngines {
			t.Run(name+"/"+algo.String(), func(t *testing.T) {
				for seed := int64(1); seed <= 5; seed++ {
					c.run(t, algo, seed)
				}
			})
		}
	}
}

// kindFor is kindOf the way a Var[T] method calls it.
func kindFor[T any]() kind {
	var zero T
	return kindOf(zero)
}

// TestKindOfMatchesReflect: kindOf reads the runtime's type descriptor; it
// must agree with reflect on every kind, and the storage classes must
// partition them by what fits a slot.
func TestKindOfMatchesReflect(t *testing.T) {
	check := func(got kind, typ reflect.Type) {
		t.Helper()
		if reflect.Kind(got) != typ.Kind() {
			t.Errorf("kindOf[%v] = %v, reflect says %v", typ, reflect.Kind(got), typ.Kind())
		}
		wantScalar := typ.Kind() >= reflect.Bool && typ.Kind() <= reflect.Complex64
		wantPointer := false
		switch typ.Kind() {
		case reflect.Chan, reflect.Func, reflect.Map, reflect.Pointer, reflect.UnsafePointer:
			wantPointer = true
		}
		if got.scalar() != wantScalar || got.pointer() != wantPointer {
			t.Errorf("%v: scalar=%v pointer=%v, want %v/%v", typ, got.scalar(), got.pointer(), wantScalar, wantPointer)
		}
		if got.scalar() && typ.Size() > 8 {
			t.Errorf("%v is %d bytes but classed as a scalar", typ, typ.Size())
		}
	}
	check(kindFor[bool](), reflect.TypeFor[bool]())
	check(kindFor[int](), reflect.TypeFor[int]())
	check(kindFor[int8](), reflect.TypeFor[int8]())
	check(kindFor[int16](), reflect.TypeFor[int16]())
	check(kindFor[int32](), reflect.TypeFor[int32]())
	check(kindFor[int64](), reflect.TypeFor[int64]())
	check(kindFor[uint](), reflect.TypeFor[uint]())
	check(kindFor[reprByte](), reflect.TypeFor[reprByte]())
	check(kindFor[uint16](), reflect.TypeFor[uint16]())
	check(kindFor[uint32](), reflect.TypeFor[uint32]())
	check(kindFor[uint64](), reflect.TypeFor[uint64]())
	check(kindFor[uintptr](), reflect.TypeFor[uintptr]())
	check(kindFor[float32](), reflect.TypeFor[float32]())
	check(kindFor[float64](), reflect.TypeFor[float64]())
	check(kindFor[complex64](), reflect.TypeFor[complex64]())
	check(kindFor[complex128](), reflect.TypeFor[complex128]())
	check(kindFor[[1]int](), reflect.TypeFor[[1]int]())
	check(kindFor[chan int](), reflect.TypeFor[chan int]())
	check(kindFor[func() int](), reflect.TypeFor[func() int]())
	check(kindFor[any](), reflect.TypeFor[any]())
	check(kindFor[error](), reflect.TypeFor[error]())
	check(kindFor[map[string]int](), reflect.TypeFor[map[string]int]())
	check(kindFor[*reprNode](), reflect.TypeFor[*reprNode]())
	check(kindFor[[]int](), reflect.TypeFor[[]int]())
	check(kindFor[string](), reflect.TypeFor[string]())
	check(kindFor[struct{}](), reflect.TypeFor[struct{}]())
	check(kindFor[reprPair](), reflect.TypeFor[reprPair]())
	check(kindFor[struct{ p *int }](), reflect.TypeFor[struct{ p *int }]())
}

// TestNoTornValues: writers commit self-checking values of every storage
// class while AtomicRO readers on both engines and Peek readers assert they
// never see a mixed one. The pointed-to nodes are reachable only through
// their Var, and the collector runs throughout: a value hidden from it, or a
// scalar it mistook for a pointer, fails here (under -race, checkptr
// referees the conversions too).
func TestNoTornValues(t *testing.T) {
	type state struct {
		word  Var[uint64]    // hi half == ^lo half
		flt   Var[float64]   // bits: hi half == ^lo half
		node  Var[*reprNode] // stamped with its own address
		wide  Var[[4]string] // four equal fields
		pair  Var[[2]uint64] // [1] == ^[0]
		iface Var[any]       // *reprNode or a [2]uint64 as above
	}
	selfCheck := func(lo uint32) uint64 { return uint64(^lo)<<32 | uint64(lo) }
	wordOK := func(w uint64) bool { return uint32(w>>32) == ^uint32(w) }
	strs := []string{"", "a", "bb", "ccc"}
	verify := func(word uint64, flt float64, node *reprNode, wide [4]string, pair [2]uint64, iface any) error {
		switch {
		case word != 0 && !wordOK(word):
			return fmt.Errorf("torn word %#x", word)
		case math.Float64bits(flt) != 0 && !wordOK(math.Float64bits(flt)):
			return fmt.Errorf("torn float bits %#x", math.Float64bits(flt))
		case node != nil && !node.intact():
			return fmt.Errorf("node %p damaged: %+v", node, *node)
		case wide[0] != wide[1] || wide[1] != wide[2] || wide[2] != wide[3]:
			return fmt.Errorf("torn array %q", wide)
		case pair != [2]uint64{} && pair[1] != ^pair[0]:
			return fmt.Errorf("torn pair %#x", pair)
		}
		switch v := iface.(type) {
		case nil:
		case *reprNode:
			if !v.intact() {
				return fmt.Errorf("node %p behind an interface damaged", v)
			}
		case [2]uint64:
			if v[1] != ^v[0] {
				return fmt.Errorf("torn pair %#x behind an interface", v)
			}
		default:
			return fmt.Errorf("interface holds a %T", iface)
		}
		return nil
	}
	const writers, writes = 2, 1500
	for _, algo := range allocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			st := &state{}
			var done atomic.Bool
			var wg, bg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < writes; i++ {
						lo := uint32(w*writes + i + 1)
						if err := rt.Atomic(func(tx *Tx) error {
							st.word.Write(tx, selfCheck(lo))
							st.flt.Write(tx, math.Float64frombits(selfCheck(lo)))
							st.node.Write(tx, newReprNode())
							s := strs[i%len(strs)]
							st.wide.Write(tx, [4]string{s, s, s, s})
							st.pair.Write(tx, [2]uint64{uint64(lo), ^uint64(lo)})
							if i%2 == 0 {
								st.iface.Write(tx, newReprNode())
							} else {
								st.iface.Write(tx, [2]uint64{uint64(lo), ^uint64(lo)})
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			reader := func(read func() error) {
				bg.Add(1)
				go func() {
					defer bg.Done()
					for !done.Load() {
						if err := read(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for r := 0; r < 2; r++ {
				reader(func() error {
					return rt.AtomicRO(func(tx *Tx) error {
						return verify(st.word.Read(tx), st.flt.Read(tx), st.node.Read(tx),
							st.wide.Read(tx), st.pair.Read(tx), st.iface.Read(tx))
					})
				})
			}
			reader(func() error {
				return verify(st.word.Peek(), st.flt.Peek(), st.node.Peek(),
					st.wide.Peek(), st.pair.Peek(), st.iface.Peek())
			})
			reader(func() error { runtime.GC(); return nil })
			wg.Wait()
			done.Store(true)
			bg.Wait()
			runtime.GC()
			if err := verify(st.word.Peek(), st.flt.Peek(), st.node.Peek(),
				st.wide.Peek(), st.pair.Peek(), st.iface.Peek()); err != nil {
				t.Fatalf("after the storm: %v", err)
			}
			if st.node.Peek() == nil || st.word.Peek() == 0 {
				t.Fatal("no write reached the Vars")
			}
		})
	}
}

// TestNOrecValidatesByValue: NOrec's value log compares what a location
// holds, not when it was written. A scalar or a pointer that goes A→B→A
// between a reader's sample and its commit lets the reader commit without a
// retry; a boxed value does not, because the second A is a different box.
func TestNOrecValidatesByValue(t *testing.T) {
	rt := New(Config{Algorithm: NOrec})
	a, b := newReprNode(), newReprNode()
	aba := func(name string, wantAborts uint64, attempt func(tx *Tx)) {
		t.Helper()
		before := rt.Stats()
		if err := rt.Atomic(func(tx *Tx) error {
			attempt(tx)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := rt.Stats().Aborts - before.Aborts; got != wantAborts {
			t.Errorf("%s: A→B→A under a reader cost %d aborts, want %d", name, got, wantAborts)
		}
	}
	commit := func(fn func(tx *Tx)) {
		t.Helper()
		if err := rt.Atomic(func(tx *Tx) error { fn(tx); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var out Var[int]

	num := NewVar(int64(1) << 40)
	aba("scalar", 0, func(tx *Tx) {
		got := num.Read(tx)
		if tx.Attempt() == 0 {
			commit(func(in *Tx) { num.Write(in, 7) })
			commit(func(in *Tx) { num.Write(in, got) })
		}
		out.Write(tx, 1) // a writer commit: validates the log under the lock
	})

	ptr := NewVar(a)
	aba("pointer", 0, func(tx *Tx) {
		got := ptr.Read(tx)
		if tx.Attempt() == 0 {
			commit(func(in *Tx) { ptr.Write(in, b) })
			commit(func(in *Tx) { ptr.Write(in, got) })
		}
		out.Write(tx, 2)
	})

	str := NewVar("A")
	aba("box", 1, func(tx *Tx) {
		got := str.Read(tx)
		if tx.Attempt() == 0 {
			commit(func(in *Tx) { str.Write(in, "B") })
			commit(func(in *Tx) { str.Write(in, got) })
		}
		out.Write(tx, 3)
	})

	// A real change is still caught: the reader retries and sees it.
	aba("scalar A→B", 1, func(tx *Tx) {
		got := num.Read(tx)
		if tx.Attempt() == 0 {
			commit(func(in *Tx) { num.Write(in, got+1) })
		}
		out.Write(tx, int(got))
	})
	if want := int(int64(1)<<40 + 1); out.Peek() != want {
		t.Errorf("out = %d, want %d (the retry's read)", out.Peek(), want)
	}
}
