package stm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// memSink captures published durable write-sets in memory, standing in for
// the WAL. Publish copies the ops slice (the contract says it is only valid
// for the duration of the call) and dereferences no box until asked.
type memSink struct {
	next  atomic.Uint64
	mu    sync.Mutex
	recs  map[uint64][]DurableOp
	waits atomic.Uint64
}

func (s *memSink) BeginCommit() uint64 { return s.next.Add(1) }

func (s *memSink) Publish(csn uint64, ops []DurableOp) {
	cp := make([]DurableOp, len(ops))
	copy(cp, ops)
	s.mu.Lock()
	if s.recs == nil {
		s.recs = make(map[uint64][]DurableOp)
	}
	if _, dup := s.recs[csn]; dup {
		panic("memSink: duplicate CSN published")
	}
	s.recs[csn] = cp
	s.mu.Unlock()
}

func (s *memSink) WaitDurable(uint64) { s.waits.Add(1) }

// TestDurableCSNReplayEquivalence is the core ordering contract of the
// durability hook (DESIGN.md §13): replaying the published records in CSN
// order, starting from the initial state, must reproduce exactly the final
// committed state — under full concurrency, on both engines. A CSN drawn
// outside the commit critical section would fail this test (a read-from or
// overwrite dependency could invert), as would a lost or duplicated publish.
func TestDurableCSNReplayEquivalence(t *testing.T) {
	const (
		vars    = 8
		workers = 8
		iters   = 500
	)
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			vs := make([]*Var[int], vars)
			for i := range vs {
				vs[i] = NewVar(0)
				vs[i].MarkDurable(uint64(i + 1))
			}
			sink := &memSink{}
			rt.AttachCommitSink(sink)

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					prng := seed*0x9E3779B97F4A7C15 + 1
					for i := 0; i < iters; i++ {
						prng ^= prng << 13
						prng ^= prng >> 7
						prng ^= prng << 17
						a := int(prng % vars)
						b := int((prng >> 8) % vars)
						if err := rt.Atomic(func(tx *Tx) error {
							vs[a].Write(tx, vs[a].Read(tx)+1)
							if b != a {
								vs[b].Write(tx, vs[b].Read(tx)+2)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(uint64(w + 1))
			}
			wg.Wait()
			rt.AttachCommitSink(nil)

			n := uint64(len(sink.recs))
			if n == 0 {
				t.Fatal("no records published")
			}
			// CSNs must be dense: every number in [1, n] published exactly once.
			replayed := make(map[uint64]int)
			for csn := uint64(1); csn <= n; csn++ {
				ops, ok := sink.recs[csn]
				if !ok {
					t.Fatalf("CSN %d missing from publish stream (got %d records)", csn, n)
				}
				for _, op := range ops {
					replayed[op.ID] = opValue[int](op)
				}
			}
			for i, v := range vs {
				want := v.Peek()
				if got := replayed[uint64(i+1)]; got != want {
					t.Errorf("var %d: replay in CSN order gives %d, committed state is %d", i, got, want)
				}
			}
			if w := sink.waits.Load(); w != n {
				t.Errorf("WaitDurable called %d times, want one per durable commit (%d)", w, n)
			}
		})
	}
}

// TestDurableEveryDrawnCSNIsPublished: a CSN drawn and never published is a
// hole the sink's watermark cannot pass, so on both commit paths BeginCommit
// and Publish come in pairs — whatever else happens to the attempts around
// them: conflicts on two hot locations, bodies that return an error after
// writing, read-only bodies.
func TestDurableEveryDrawnCSNIsPublished(t *testing.T) {
	const workers, iters = 6, 400
	errBody := errors.New("body gave up")
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			hot := [2]*Var[int]{NewVar(0), NewVar(0)}
			hot[0].MarkDurable(1)
			hot[1].MarkDurable(2)
			sink := &memSink{}
			rt.AttachCommitSink(sink)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						err := rt.Atomic(func(tx *Tx) error {
							v := hot[i&1].Read(tx)
							if i%5 == 0 {
								return nil // read-only
							}
							hot[(i+w)&1].Write(tx, v+1)
							if i%7 == 0 {
								return errBody
							}
							return nil
						})
						if err != nil && !errors.Is(err, errBody) {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			drawn, published := sink.next.Load(), uint64(len(sink.recs))
			if drawn == 0 || drawn != published {
				t.Fatalf("%d CSNs drawn, %d published", drawn, published)
			}
			for csn := uint64(1); csn <= drawn; csn++ {
				if _, ok := sink.recs[csn]; !ok {
					t.Fatalf("CSN %d drawn and never published", csn)
				}
			}
		})
	}
}

// TestDurableOnlyMarkedLocationsPublish checks filtering: transactions that
// write no durable location never touch the sink, and mixed write sets
// publish only their durable subset.
func TestDurableOnlyMarkedLocationsPublish(t *testing.T) {
	for _, algo := range []Algorithm{TL2, NOrec} {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			dur := NewVar(0)
			dur.MarkDurable(7)
			plain := NewVar(0)
			sink := &memSink{}
			rt.AttachCommitSink(sink)

			// Writer touching only the non-durable location: no publish.
			if err := rt.Atomic(func(tx *Tx) error {
				plain.Write(tx, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// Read-only: no publish.
			if err := rt.AtomicRO(func(tx *Tx) error {
				_ = dur.Read(tx)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(sink.recs) != 0 {
				t.Fatalf("non-durable commits published %d records", len(sink.recs))
			}

			// Mixed write set: only the durable op crosses the sink.
			if err := rt.Atomic(func(tx *Tx) error {
				plain.Write(tx, 2)
				dur.Write(tx, 42)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			ops := sink.recs[1]
			if len(ops) != 1 || ops[0].ID != 7 || opValue[int](ops[0]) != 42 {
				t.Fatalf("mixed commit published %+v, want single op id=7 val=42", ops)
			}
		})
	}
}

func TestMarkDurableZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDurable(0) did not panic")
		}
	}()
	NewVar(0).MarkDurable(0)
}
