package container

import (
	"sort"
	"testing"

	"rubic/internal/stm"
)

// Native fuzz targets: random operation sequences drive each container
// through transactions on BOTH engines simultaneously, checked against a
// plain-map oracle. The oracle is mutated only after the commit succeeds
// (the transactional closures stay retry-safe), structural invariants are
// verified after every commit, and the two engines must agree operation by
// operation — a differential check on top of the model check.
//
// Op encoding: two bytes per operation. The first byte selects the
// operation (modulo the target's kinds), the second the key; the keyspace is
// kept tiny (16 keys) so sequences collide constantly and exercise
// rebalancing/deletion paths.

const fuzzKeySpace = 16

type fuzzOp struct {
	kind byte // 0=Put 1=Delete 2=Get 3=Len, and for FuzzHashMap 4=Update
	key  int64
	val  int
}

func decodeOps(data []byte, kinds byte) []fuzzOp {
	ops := make([]fuzzOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		ops = append(ops, fuzzOp{
			kind: data[i] % kinds,
			key:  int64(data[i+1] % fuzzKeySpace),
			// A value unique to the op position, small enough to box free.
			val: (i / 2) & 0x7f,
		})
	}
	return ops
}

// fuzzSeeds are shared between both targets; files under testdata/fuzz add
// longer sequences.
func addFuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})                                     // single put
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0})       // put/put/put/del/get/len
	f.Add([]byte{0, 5, 0, 5, 1, 5, 1, 5, 2, 5})             // duplicate put, double delete
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}) // ascending inserts (rotation heavy)
	f.Add([]byte{0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 1, 3, 1, 4})
}

func FuzzRBTree(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data, 4)
		if len(ops) > 512 {
			ops = ops[:512]
		}
		engines := []*stm.Runtime{
			stm.New(stm.Config{Algorithm: stm.TL2}),
			stm.New(stm.Config{Algorithm: stm.NOrec}),
		}
		trees := []*RBTree[int]{NewRBTree[int](), NewRBTree[int]()}
		oracle := map[int64]int{}
		for opIdx, op := range ops {
			var results [2]struct {
				changed bool
				got     int
				ok      bool
				n       int
			}
			for e, rt := range engines {
				tree := trees[e]
				r := &results[e]
				err := rt.Atomic(func(tx *stm.Tx) error {
					switch op.kind {
					case 0:
						r.changed = tree.Put(tx, op.key, op.val)
					case 1:
						r.changed = tree.Delete(tx, op.key)
					case 2:
						r.got, r.ok = tree.Get(tx, op.key)
					case 3:
						r.n = tree.Len(tx)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("op %d engine %d: %v", opIdx, e, err)
				}
				// Structural invariants after every commit.
				if err := rt.AtomicRO(func(tx *stm.Tx) error {
					if msg := tree.CheckInvariants(tx); msg != "" {
						t.Fatalf("op %d engine %d: invariant violated: %s", opIdx, e, msg)
					}
					if n := tree.Len(tx); n != len(oracleAfter(oracle, op)) {
						t.Fatalf("op %d engine %d: Len = %d, oracle %d", opIdx, e, n, len(oracleAfter(oracle, op)))
					}
					return nil
				}); err != nil {
					t.Fatalf("op %d engine %d: %v", opIdx, e, err)
				}
			}
			if results[0] != results[1] {
				t.Fatalf("op %d: engines disagree: tl2=%+v norec=%+v", opIdx, results[0], results[1])
			}
			// Model check against the oracle, then advance it.
			_, inOracle := oracle[op.key]
			switch op.kind {
			case 0:
				if results[0].changed != !inOracle {
					t.Fatalf("op %d: Put(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				oracle[op.key] = op.val
			case 1:
				if results[0].changed != inOracle {
					t.Fatalf("op %d: Delete(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				delete(oracle, op.key)
			case 2:
				if results[0].ok != inOracle || (inOracle && results[0].got != oracle[op.key]) {
					t.Fatalf("op %d: Get(%d) = (%d,%v), oracle (%d,%v)",
						opIdx, op.key, results[0].got, results[0].ok, oracle[op.key], inOracle)
				}
			case 3:
				if results[0].n != len(oracle) {
					t.Fatalf("op %d: Len = %d, oracle %d", opIdx, results[0].n, len(oracle))
				}
			}
		}
		// Final sweep: sorted key sets must match the oracle exactly.
		want := make([]int64, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for e, rt := range engines {
			tree := trees[e]
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				got := tree.Keys(tx)
				if len(got) != len(want) {
					t.Fatalf("engine %d: %d keys, oracle %d", e, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("engine %d: Keys[%d] = %d, oracle %d", e, i, got[i], want[i])
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// oracleAfter returns the oracle as it will look once op is applied; the
// invariant check runs after the container committed op but before the
// oracle advances, so Len comparisons need the post-state.
func oracleAfter(oracle map[int64]int, op fuzzOp) map[int64]int {
	switch op.kind {
	case 0:
		if _, ok := oracle[op.key]; !ok {
			out := make(map[int64]int, len(oracle)+1)
			for k, v := range oracle {
				out[k] = v
			}
			out[op.key] = op.val
			return out
		}
	case 1:
		if _, ok := oracle[op.key]; ok {
			out := make(map[int64]int, len(oracle))
			for k, v := range oracle {
				if k != op.key {
					out[k] = v
				}
			}
			return out
		}
	}
	return oracle
}

func FuzzHashMap(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data, 5)
		if len(ops) > 512 {
			ops = ops[:512]
		}
		engines := []*stm.Runtime{
			stm.New(stm.Config{Algorithm: stm.TL2}),
			stm.New(stm.Config{Algorithm: stm.NOrec}),
		}
		maps := []*HashMap[int]{NewHashMap[int](4), NewHashMap[int](4)}
		// update is the read-modify-write op 4 applies, to the maps and to
		// the oracle alike.
		update := func(val int) func(cur int, ok bool) int {
			return func(cur int, ok bool) int {
				if ok {
					return cur + val + 1
				}
				return val
			}
		}
		oracle := map[int64]int{}
		for opIdx, op := range ops {
			var results [2]struct {
				changed bool
				got     int
				ok      bool
				n       int
			}
			for e, rt := range engines {
				m := maps[e]
				r := &results[e]
				err := rt.Atomic(func(tx *stm.Tx) error {
					switch op.kind {
					case 0:
						r.changed = m.Put(tx, op.key, op.val)
					case 1:
						r.changed = m.Delete(tx, op.key)
					case 2:
						r.got, r.ok = m.Get(tx, op.key)
					case 3:
						r.n = m.Len(tx)
					case 4:
						r.changed = m.Update(tx, op.key, update(op.val))
					}
					return nil
				})
				if err != nil {
					t.Fatalf("op %d engine %d: %v", opIdx, e, err)
				}
			}
			if results[0] != results[1] {
				t.Fatalf("op %d: engines disagree: tl2=%+v norec=%+v", opIdx, results[0], results[1])
			}
			cur, inOracle := oracle[op.key]
			switch op.kind {
			case 0:
				if results[0].changed != !inOracle {
					t.Fatalf("op %d: Put(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				oracle[op.key] = op.val
			case 1:
				if results[0].changed != inOracle {
					t.Fatalf("op %d: Delete(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				delete(oracle, op.key)
			case 2:
				if results[0].ok != inOracle || (inOracle && results[0].got != cur) {
					t.Fatalf("op %d: Get(%d) = (%d,%v), oracle (%d,%v)",
						opIdx, op.key, results[0].got, results[0].ok, cur, inOracle)
				}
			case 3:
				if results[0].n != len(oracle) {
					t.Fatalf("op %d: Len = %d, oracle %d", opIdx, results[0].n, len(oracle))
				}
			case 4:
				if results[0].changed != !inOracle {
					t.Fatalf("op %d: Update(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				oracle[op.key] = update(op.val)(cur, inOracle)
			}
			// Size consistency after every commit: Len must equal the number
			// of keys Range visits.
			for e, rt := range engines {
				m := maps[e]
				if err := rt.AtomicRO(func(tx *stm.Tx) error {
					visited := 0
					m.Range(tx, func(int64, int) bool { visited++; return true })
					if n := m.Len(tx); n != visited {
						t.Fatalf("op %d engine %d: Len=%d but Range visited %d", opIdx, e, n, visited)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Final sweep against the oracle.
		for e, rt := range engines {
			m := maps[e]
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				if n := m.Len(tx); n != len(oracle) {
					t.Fatalf("engine %d: final Len = %d, oracle %d", e, n, len(oracle))
				}
				for k, v := range oracle {
					got, ok := m.Get(tx, k)
					if !ok || got != v {
						t.Fatalf("engine %d: Get(%d) = (%d,%v), oracle %d", e, k, got, ok, v)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzAdaptiveSwitch is the switch-point differential fuzzer: the same
// operation sequence runs on an adaptive runtime that hot-swaps its engine
// and contention manager mid-sequence (schedule derived from the fuzz input)
// and on a static runtime, both checked against a plain-map oracle after
// every commit. Any state the handoff tears — a value lost in the engine
// switch, a version left in the future of the re-seeded clock — surfaces as
// a divergence from the static twin or the oracle.
//
// Input encoding: byte 0 picks the switch period (every 1..8 operations, a
// CM swap plus an engine handoff); the rest is the shared two-byte op
// stream of decodeOps.
func FuzzAdaptiveSwitch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1}) // period 1: switch before every op
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0})
	f.Add([]byte{2, 0, 5, 0, 5, 1, 5, 1, 5, 2, 5})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add([]byte{7, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		period := 1
		if len(data) > 0 {
			period = 1 + int(data[0]%8)
			data = data[1:]
		}
		ops := decodeOps(data, 4)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		adaptive := stm.New(stm.Config{Algorithm: stm.TL2})
		static := stm.New(stm.Config{Algorithm: stm.TL2})
		runtimes := []*stm.Runtime{adaptive, static}
		maps := []*HashMap[int]{NewHashMap[int](4), NewHashMap[int](4)}
		oracle := map[int64]int{}
		engines := [2]stm.Algorithm{stm.NOrec, stm.TL2}
		cms := []stm.ContentionManager{stm.GreedyCM{}, stm.KarmaCM{}, nil, stm.SuicideCM{}}
		switches := 0
		for opIdx, op := range ops {
			if opIdx > 0 && opIdx%period == 0 {
				// The adaptive twin swaps CM and engine; nil CM exercises the
				// default-restoring path. The static twin never switches.
				adaptive.SetContentionManager(cms[switches%len(cms)])
				adaptive.SwitchEngine(engines[switches%len(engines)])
				switches++
			}
			var results [2]struct {
				changed bool
				got     int
				ok      bool
				n       int
			}
			for e, rt := range runtimes {
				m := maps[e]
				r := &results[e]
				err := rt.Atomic(func(tx *stm.Tx) error {
					switch op.kind {
					case 0:
						r.changed = m.Put(tx, op.key, op.val)
					case 1:
						r.changed = m.Delete(tx, op.key)
					case 2:
						r.got, r.ok = m.Get(tx, op.key)
					case 3:
						r.n = m.Len(tx)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("op %d runtime %d: %v", opIdx, e, err)
				}
			}
			if results[0] != results[1] {
				t.Fatalf("op %d (after %d switches): adaptive and static runtimes disagree: %+v vs %+v",
					opIdx, switches, results[0], results[1])
			}
			_, inOracle := oracle[op.key]
			switch op.kind {
			case 0:
				if results[0].changed != !inOracle {
					t.Fatalf("op %d: Put(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				oracle[op.key] = op.val
			case 1:
				if results[0].changed != inOracle {
					t.Fatalf("op %d: Delete(%d) changed=%v, oracle had=%v", opIdx, op.key, results[0].changed, inOracle)
				}
				delete(oracle, op.key)
			case 2:
				if results[0].ok != inOracle || (inOracle && results[0].got != oracle[op.key]) {
					t.Fatalf("op %d: Get(%d) = (%d,%v), oracle (%d,%v)",
						opIdx, op.key, results[0].got, results[0].ok, oracle[op.key], inOracle)
				}
			case 3:
				if results[0].n != len(oracle) {
					t.Fatalf("op %d: Len = %d, oracle %d", opIdx, results[0].n, len(oracle))
				}
			}
		}
		// The handoffs the schedule promised actually happened, and the final
		// map contents survived them all.
		if eng, _ := adaptive.SwitchCounts(); int(eng) != switches {
			t.Fatalf("engine switch count %d, schedule performed %d", eng, switches)
		}
		if err := adaptive.AtomicRO(func(tx *stm.Tx) error {
			if n := maps[0].Len(tx); n != len(oracle) {
				t.Fatalf("final Len = %d, oracle %d", n, len(oracle))
			}
			for k, v := range oracle {
				got, ok := maps[0].Get(tx, k)
				if !ok || got != v {
					t.Fatalf("final Get(%d) = (%d,%v), oracle %d", k, got, ok, v)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
