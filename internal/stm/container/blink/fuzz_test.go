package blink

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"rubic/internal/stm"
)

// FuzzBLink is the Map's differential fuzzer: one operation sequence drives
// the Map on BOTH engines, checked against a sorted-map oracle op by op. The
// hybrid fast path (LookupFast) is validated against the STM path after every
// commit, full ordered scans are compared against the sorted oracle, and a
// concurrent reader probes the fast path for torn reads (every value encodes
// its key) while the sequence executes.
//
// Op encoding follows the container package's fuzzers: two bytes per op —
// kind, then key — over a tiny key space so structural paths (splits,
// right-chasing, emptied leaves) are hit constantly.

const fuzzKeySpace = 16

type fuzzOp struct {
	kind byte // 0=Put 1=Delete 2=Get 3=Scan
	key  int64
	val  int64
}

func decodeOps(data []byte) []fuzzOp {
	ops := make([]fuzzOp, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		key := int64(data[i+1] % fuzzKeySpace)
		ops = append(ops, fuzzOp{
			kind: data[i] % 4,
			key:  key,
			// The value encodes its key so concurrent probes detect tearing.
			val: key<<8 | int64((i/2)&0xff),
		})
	}
	return ops
}

func FuzzBLink(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 1, 3, 0})       // put×3, del, get, scan
	f.Add([]byte{0, 5, 0, 5, 1, 5, 1, 5, 2, 5})             // duplicate put, double delete
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6}) // ascending inserts
	f.Add([]byte{0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 3, 3, 1, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) > 512 {
			ops = ops[:512]
		}
		engines := []*stm.Runtime{
			stm.New(stm.Config{Algorithm: stm.TL2}),
			stm.New(stm.Config{Algorithm: stm.NOrec}),
		}
		maps := []*Map[int64]{NewMap[int64](), NewMap[int64]()}
		oracle := map[int64]int64{}

		// Concurrent torn-read probe over the lock-free paths: values encode
		// their key, so any torn observation is a mismatch.
		var stopProbe atomic.Bool
		var probe sync.WaitGroup
		probe.Add(1)
		go func() {
			defer probe.Done()
			for k := int64(0); !stopProbe.Load(); k = (k + 1) % fuzzKeySpace {
				if v, ok := maps[0].LookupFast(k); ok && v>>8 != k {
					panic("fuzz probe: torn Map.LookupFast")
				}
				maps[1].ScanFast(k, k+4, func(sk, sv int64) bool {
					if sv>>8 != sk {
						panic("fuzz probe: torn Map.ScanFast")
					}
					return true
				})
			}
		}()
		defer func() {
			stopProbe.Store(true)
			probe.Wait()
		}()

		for opIdx, op := range ops {
			switch op.kind {
			case 0: // Put
				_, had := oracle[op.key]
				for e, rt := range engines {
					var added bool
					if err := rt.Atomic(func(tx *stm.Tx) error {
						added = maps[e].Put(tx, op.key, op.val)
						return nil
					}); err != nil {
						t.Fatalf("op %d engine %d: %v", opIdx, e, err)
					}
					if added == had {
						t.Fatalf("op %d: Map[%d].Put(%d) added=%v, oracle had=%v", opIdx, e, op.key, added, had)
					}
				}
				oracle[op.key] = op.val
			case 1: // Delete
				_, had := oracle[op.key]
				for e, rt := range engines {
					var removed bool
					if err := rt.Atomic(func(tx *stm.Tx) error {
						removed = maps[e].Delete(tx, op.key)
						return nil
					}); err != nil {
						t.Fatalf("op %d engine %d: %v", opIdx, e, err)
					}
					if removed != had {
						t.Fatalf("op %d: Map[%d].Delete(%d)=%v, oracle had=%v", opIdx, e, op.key, removed, had)
					}
				}
				delete(oracle, op.key)
			case 2: // Get: the fast path and the STM path must both agree with the oracle.
				want, had := oracle[op.key]
				for e, rt := range engines {
					if got, ok := maps[e].LookupFast(op.key); ok != had || (ok && got != want) {
						t.Fatalf("op %d: Map[%d].LookupFast(%d)=(%d,%v), want (%d,%v)", opIdx, e, op.key, got, ok, want, had)
					}
					var got int64
					var ok bool
					if err := rt.AtomicRO(func(tx *stm.Tx) error {
						got, ok = maps[e].Get(tx, op.key)
						return nil
					}); err != nil {
						t.Fatalf("op %d engine %d: %v", opIdx, e, err)
					}
					if ok != had || (ok && got != want) {
						t.Fatalf("op %d: Map[%d].Get(%d)=(%d,%v), want (%d,%v)", opIdx, e, op.key, got, ok, want, had)
					}
				}
			case 3: // Scan from key: ordered suffix must match the oracle.
				var wantKeys []int64
				for k := range oracle {
					if k >= op.key {
						wantKeys = append(wantKeys, k)
					}
				}
				sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
				check := func(label string, gotKeys []int64) {
					if len(gotKeys) != len(wantKeys) {
						t.Fatalf("op %d: %s scan yielded %v, want %v", opIdx, label, gotKeys, wantKeys)
					}
					for i := range wantKeys {
						if gotKeys[i] != wantKeys[i] {
							t.Fatalf("op %d: %s scan yielded %v, want %v", opIdx, label, gotKeys, wantKeys)
						}
					}
				}
				for e, rt := range engines {
					var fastKeys, tranKeys []int64
					maps[e].ScanFast(op.key, fuzzKeySpace, func(k, v int64) bool {
						if v != oracle[k] {
							t.Fatalf("op %d: Map[%d].ScanFast key %d value %d, oracle %d", opIdx, e, k, v, oracle[k])
						}
						fastKeys = append(fastKeys, k)
						return true
					})
					check("Map.ScanFast", fastKeys)
					if err := rt.AtomicRO(func(tx *stm.Tx) error {
						tranKeys = tranKeys[:0]
						maps[e].RangeBetween(tx, op.key, fuzzKeySpace, func(k, v int64) bool {
							tranKeys = append(tranKeys, k)
							return true
						})
						return nil
					}); err != nil {
						t.Fatalf("op %d engine %d: %v", opIdx, e, err)
					}
					check("Map.RangeBetween", tranKeys)
				}
			}
		}
		for e, rt := range engines {
			if err := rt.AtomicRO(func(tx *stm.Tx) error {
				if err := maps[e].CheckInvariants(tx); err != nil {
					return err
				}
				if n := maps[e].Len(tx); n != len(oracle) {
					t.Fatalf("Map[%d].Len=%d, oracle %d", e, n, len(oracle))
				}
				return nil
			}); err != nil {
				t.Fatalf("settled Map[%d]: %v", e, err)
			}
		}
	})
}
