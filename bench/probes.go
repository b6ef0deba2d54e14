package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/metrics"
	"rubic/internal/pool"
	"rubic/internal/sim"
	"rubic/internal/stm"
	"rubic/internal/stm/container"
	"rubic/internal/stm/container/blink"
	"rubic/internal/wal"
)

// The probes time calls into each package's public functions, one layer at
// a time, on data shaped like the workloads'. They are the same in every
// traced run, whatever the workload: a layer's unit cost is a property of
// the layer, and reading it beside each workload's end-to-end numbers is
// what tells which layer a change moved.

// clockNs is the cost of timing something with a pair of clock reads,
// calibrated once per process and subtracted from nanosecond-scale timings.
var clockNs float64

func calibrateClock() {
	d := make([]float64, 20001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	clockNs = median(d)
}

func lessClock(ns float64) float64 {
	if ns -= clockNs; ns < 0 {
		return 0
	}
	return ns
}

// sink keeps probe results live so the compiler cannot drop the calls.
var sink atomic.Uint64

// perOp returns the cost of one operation in nanoseconds: fn(n) performs n
// operations; n doubles until one call lasts minDur, then the median of
// five calls is taken.
func perOp(minDur time.Duration, fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= minDur || n >= 1<<28 {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

// zipfKeys precomputes a hot-key sequence so container probes pay for the
// container, not the generator.
func zipfKeys(keys uint64, seed int64) ([]int64, error) {
	z, err := load.NewZipf(keys, load.DefaultTheta, seed)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 4096)
	for i := range out {
		out[i] = int64(z.Next())
	}
	return out, nil
}

// runProbes measures every workload-independent per-layer metric.
func runProbes(r *report, seed int64, minDur time.Duration, walDir string) error {
	keys, err := zipfKeys(kvKeys, seed)
	if err != nil {
		return err
	}

	// load
	z, err := load.NewZipf(kvKeys, load.DefaultTheta, seed)
	if err != nil {
		return err
	}
	r.set("load.zipf_next_ns", perOp(minDur, func(n int) {
		var s uint64
		for i := 0; i < n; i++ {
			s += z.Next()
		}
		sink.Add(s)
	}))
	arr, err := load.NewPoisson(steadyRate, seed)
	if err != nil {
		return err
	}
	r.set("load.arrival_next_ns", perOp(minDur, func(n int) {
		var s time.Duration
		for i := 0; i < n; i++ {
			s += arr.Next()
		}
		sink.Add(uint64(s))
	}))
	q, err := load.NewQueue(load.DefaultQueueCap)
	if err != nil {
		return err
	}
	r.set("load.queue_ops_ns", perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			q.Offer(load.Request{Seq: uint64(i)})
			q.Pop()
		}
	}))

	// pool
	dispatch, err := probeDispatch(seed, minDur)
	if err != nil {
		return err
	}
	r.set("pool.dispatch_ns", dispatch)
	setLevel, err := probeSetLevel(seed)
	if err != nil {
		return err
	}
	r.set("pool.setlevel_us", setLevel)

	// stm: 1-Var blocks
	rt := stm.New(stm.Config{})
	v := stm.NewVar(int64(0))
	r.set("stm.ro_txn_ns", perOp(minDur, func(n int) {
		var x int64
		for i := 0; i < n; i++ {
			rt.AtomicRO(func(tx *stm.Tx) error { x = v.Read(tx); return nil })
		}
		sink.Add(uint64(x))
	}))
	r.set("stm.rw_txn_ns", perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			rt.Atomic(func(tx *stm.Tx) error { v.Write(tx, v.Read(tx)+1); return nil })
		}
	}))

	// container: calls batched inside one transaction, so the number is the
	// container's own cost (bucket and entry reads), not a transaction's.
	const batch = 64
	hm := container.NewHashMap[int64](kvKeys / 4)
	for i := int64(0); i < kvKeys; i++ {
		rt.Atomic(func(tx *stm.Tx) error { hm.Put(tx, i, 0); return nil })
	}
	r.set("container.hashmap_get_ns", perOp(minDur, func(n int) {
		var last int64
		for i := 0; i < n; i += batch {
			rt.AtomicRO(func(tx *stm.Tx) error {
				for j := 0; j < batch; j++ {
					last, _ = hm.Get(tx, keys[(i+j)%len(keys)])
				}
				return nil
			})
		}
		sink.Add(uint64(last))
	}))
	r.set("container.hashmap_put_ns", perOp(minDur, func(n int) {
		for i := 0; i < n; i += batch {
			rt.Atomic(func(tx *stm.Tx) error {
				for j := 0; j < batch; j++ {
					hm.Put(tx, keys[(i+j)%len(keys)], int64(i))
				}
				return nil
			})
		}
	}))
	tree := container.NewRBTree[int64]()
	const treeKeys = 64 << 10
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < treeKeys; i++ {
		k := rng.Int63n(2 * treeKeys)
		rt.Atomic(func(tx *stm.Tx) error { tree.Put(tx, k, k); return nil })
	}
	r.set("container.rbtree_op_ns", perOp(minDur, func(n int) {
		var last int64
		for i := 0; i < n; i += batch {
			rt.AtomicRO(func(tx *stm.Tx) error {
				for j := 0; j < batch; j++ {
					last, _ = tree.Get(tx, rng.Int63n(2*treeKeys))
				}
				return nil
			})
		}
		sink.Add(uint64(last))
	}))

	// blink
	bm := blink.NewMap[int64]()
	for i := int64(0); i < kvKeys; i++ {
		rt.Atomic(func(tx *stm.Tx) error { bm.Put(tx, i, 0); return nil })
	}
	r.set("blink.lookupfast_ns", perOp(minDur, func(n int) {
		var s int64
		for i := 0; i < n; i++ {
			x, _ := bm.LookupFast(keys[i%len(keys)])
			s += x
		}
		sink.Add(uint64(s))
	}))
	r.set("blink.get_ns", perOp(minDur, func(n int) {
		var last int64
		for i := 0; i < n; i += batch {
			rt.AtomicRO(func(tx *stm.Tx) error {
				for j := 0; j < batch; j++ {
					last, _ = bm.Get(tx, keys[(i+j)%len(keys)])
				}
				return nil
			})
		}
		sink.Add(uint64(last))
	}))
	r.set("blink.scanfast_ns_per_key", perOp(minDur, func(n int) {
		seen := 0
		for i := 0; seen < n; i++ {
			lo := keys[i%len(keys)]
			bm.ScanFast(lo, lo+batch-1, func(k, v int64) bool { seen++; return true })
		}
		sink.Add(uint64(seen))
	}))
	blinkPut := func(n int) {
		for i := 0; i < n; i++ {
			k := keys[i%len(keys)]
			rt.Atomic(func(tx *stm.Tx) error {
				x, _ := bm.Get(tx, k)
				bm.Put(tx, k, x+1)
				return nil
			})
		}
	}
	r.set("blink.put_ns", perOp(minDur, blinkPut))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	blinkPut(len(keys))
	runtime.ReadMemStats(&mem1)
	r.set("blink.put_allocs", float64(mem1.Mallocs-mem0.Mallocs)/float64(len(keys)))

	// core, metrics
	ctl := core.NewRUBIC(core.RUBICConfig{MaxLevel: 64})
	r.set("core.rubic_next_ns", perOp(minDur, func(n int) {
		s := 0
		for i := 0; i < n; i++ {
			s += ctl.Next(float64(1000 + (i*7919)%500))
		}
		sink.Add(uint64(s))
	}))
	h := metrics.NewHist()
	r.set("metrics.hist_record_ns", perOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(200 + i%100_000))
		}
	}))

	// sim: the paper's Intruder+Vacation pair on its 64-context machine.
	// The result is exact for a seed; the rate prices the controller loop.
	const rounds = 1000
	var gain float64
	simNs := perOp(minDur, func(n int) {
		for i := 0; i < n; i += rounds {
			nsbp := map[string]float64{}
			for _, policy := range []string{"rubic", "greedy"} {
				fac, err := core.ByName(policy, 64, 2, 64)
				if err != nil {
					panic(err) // both names are compiled into core.ByName
				}
				res, err := sim.Run(sim.Scenario{
					Machine: sim.Machine{Contexts: 64},
					Procs: []sim.ProcessSpec{
						{Name: "intruder", Workload: sim.Intruder(), Controller: fac},
						{Name: "vacation", Workload: sim.Vacation(), Controller: fac},
					},
					Rounds: rounds,
					Seed:   1,
				})
				if err != nil {
					panic(err) // the scenario is a constant
				}
				nsbp[policy] = res.NSBP
			}
			gain = nsbp["rubic"]/nsbp["greedy"] - 1
		}
	})
	r.set("sim.rounds_per_s", 2e9/simNs) // each "operation" above is one round of each policy
	r.set("sim.nsbp_gain_vs_greedy", gain)

	return probeAlways(r, minDur*25, walDir)
}

// probeDispatch measures the pool's per-task overhead: the gap between a
// task returning and the next one starting on the same worker.
func probeDispatch(seed int64, minDur time.Duration) (float64, error) {
	gaps := make([]int32, 0, 1<<16)
	var last time.Time
	full := make(chan struct{})
	pl, err := pool.New(1, seed, func(int, *rand.Rand) bool {
		now := time.Now()
		if !last.IsZero() && len(gaps) < cap(gaps) {
			if gaps = append(gaps, clampNs(now.Sub(last))); len(gaps) == cap(gaps) {
				close(full)
			}
		}
		last = time.Now()
		return true
	})
	if err != nil {
		return 0, err
	}
	pl.Start()
	select {
	case <-full:
	case <-time.After(minDur * 10):
	}
	pl.Stop()
	if len(gaps) == 0 {
		return 0, fmt.Errorf("pool dispatch probe ran no tasks")
	}
	sort.Slice(gaps, func(a, b int) bool { return gaps[a] < gaps[b] })
	return lessClock(nsQuantile(gaps, 0.5)), nil
}

// probeSetLevel measures actuation latency: from SetLevel raising the
// level until the newly admitted worker starts its first task. The
// observer sleeps while it waits — polling Active() would compete with the
// workers for the two contexts and measure the Go scheduler's preemption
// tick instead. (Lowering the level needs no wake-up: a worker parks itself
// before its next task.)
func probeSetLevel(seed int64) (float64, error) {
	var admitted atomic.Int64
	pl, err := pool.New(2, seed, func(id int, _ *rand.Rand) bool {
		if id == 1 && admitted.Load() == 0 {
			admitted.Store(now())
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	pl.Start()
	defer pl.Stop()
	var us []float64
	for i := 0; i < 100; i++ {
		pl.SetLevel(1)
		time.Sleep(200 * time.Microsecond) // worker 1 finishes its task and parks
		admitted.Store(0)
		t0 := now()
		pl.SetLevel(2)
		for wait := 0; admitted.Load() == 0; wait++ {
			if wait > 1000 {
				return 0, fmt.Errorf("pool worker not admitted within a second of SetLevel")
			}
			time.Sleep(time.Millisecond)
		}
		us = append(us, float64(admitted.Load()-t0)/1e3)
	}
	return median(us), nil
}

// probeAlways prices what the fsync=always policy makes of a commit: a
// cross-thread round trip through the logger (write + fsync + wake-up) per
// transaction. On a real disk this measures the device; it is a per-layer
// probe for that reason. The same log, kept in one segment, also gives the
// bytes the log writes per commit.
func probeAlways(r *report, dur time.Duration, walDir string) error {
	dir, err := os.MkdirTemp(walDir, "always-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rt := stm.New(stm.Config{})
	v := stm.NewVar(int64(0))
	reg := wal.NewRegistry()
	if err := wal.RegisterVar(reg, 1, v); err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.FsyncAlways, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer l.Close()
	if err := l.ApplyTo(reg); err != nil {
		return err
	}
	rt.AttachCommitSink(l)
	var us []float64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		t0 := time.Now()
		rt.Atomic(func(tx *stm.Tx) error { v.Write(tx, v.Read(tx)+1); return nil })
		us = append(us, float64(time.Since(t0))/1e3)
	}
	if lost, err := l.Lost(); lost {
		return fmt.Errorf("always probe lost durability: %w", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	var bytes int64
	for _, s := range segs {
		st, err := os.Stat(s)
		if err != nil {
			return err
		}
		bytes += st.Size()
	}
	r.set("wal.always_roundtrip_us_p50", median(us))
	r.set("wal.bytes_per_commit", float64(bytes)/float64(len(us)))
	return nil
}
