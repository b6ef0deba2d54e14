package main

import (
	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/load"
	"rubic/internal/stamp"
	"rubic/internal/stm"
)

// stackDef builds one fresh application stack: a workload on its own TL2
// runtime (default BackoffCM) plus the controller steering its pool (nil
// pins the pool at its size).
type stackDef struct {
	name  string
	pool  int
	build func() (stamp.Workload, *stm.Runtime, core.Controller, error)
}

// bodyKind selects which re-expressed request body the traced replica
// runs (see replica.go): the benchmark cannot see inside the product's
// closures, so it rebuilds each body from the containers' public methods.
// bodyNone workloads have no replica; their traced run stops at the closed
// loop and the open-loop server.
type bodyKind int

const (
	bodyKV bodyKind = iota
	bodyOrdered
	bodyNone
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why    string
	stacks []stackDef
	// durable attaches a write-ahead log (fsync=os) to every stack.
	durable bool
	// listed workloads are in BENCHMARK.json: every run of them must
	// succeed and their end-to-end metrics are gated.
	listed bool
	// repro workloads demonstrate a known defect and fail verification;
	// they run only when named.
	repro bool
	// body and readPct parameterize the traced replica.
	body    bodyKind
	readPct int
}

const kvKeys = 10_000

func kvStack(readPct, workers int, keys int) stackDef {
	return stackDef{
		name: "kv",
		pool: workers,
		build: func() (stamp.Workload, *stm.Runtime, core.Controller, error) {
			rt := stm.New(stm.Config{})
			return load.NewKV(rt, load.KVConfig{Keys: keys, ReadPct: readPct}), rt, nil, nil
		},
	}
}

func orderedStack() stackDef {
	return stackDef{
		name: "ordered",
		pool: 1,
		build: func() (stamp.Workload, *stm.Runtime, core.Controller, error) {
			rt := stm.New(stm.Config{})
			return load.NewOrdered(rt, load.OrderedConfig{Keys: kvKeys}), rt, nil, nil
		},
	}
}

// rbtreeStack is one of the paper's co-located processes: the 64K-element
// red-black tree (98% lookups) under a RUBIC controller, built through the
// same spec grammar rubic-colocate uses.
func rbtreeStack(name string, pool, stacks int) stackDef {
	return stackDef{
		name: name,
		pool: pool,
		build: func() (stamp.Workload, *stm.Runtime, core.Controller, error) {
			return colocate.StackSpec{Workload: "rbtree", Policy: "rubic"}.Build("tl2", pool, stacks)
		},
	}
}

// colocatePool is each co-located stack's pool size: with two stacks, 2x
// the hardware contexts the benchmark allows itself.
const colocatePool = 4

// workloads lists every workload in report order.
var workloads = []workloadDef{
	{
		name:    "kv-read",
		why:     "100% point reads, 1 worker: STM read path, pool gate and Zipf draw only; commit path, clock and allocator idle",
		stacks:  []stackDef{kvStack(100, 1, kvKeys)},
		listed:  true,
		readPct: 100,
	},
	{
		name:    "kv-write",
		why:     "99% read-modify-write increments, 1 worker: lock acquisition, publication boxes, commit clock and GC dominate",
		stacks:  []stackDef{kvStack(1, 1, kvKeys)},
		listed:  true,
		readPct: 1,
	},
	{
		name:    "kv-write-durable",
		why:     "kv-write with a write-ahead log (fsync=os): identical transactions, so the gap to kv-write is the WAL cost",
		stacks:  []stackDef{kvStack(1, 1, kvKeys)},
		durable: true,
		listed:  true,
		readPct: 1,
	},
	{
		name:   "ordered-mix",
		why:    "B-Link index, 70% lookups 20% scans 10% increments: long read sets, lock-free fast path, copy-on-write nodes",
		stacks: []stackDef{orderedStack()},
		listed: true,
		body:   bodyOrdered,
	},
	{
		// Not listed: eight workers saturate both contexts, so a run has no
		// quiet window whenever the host disturbs either one, and its
		// run-to-run quartile range (7-30% here) exceeded the largest bound
		// the acceptance protocol allows in two of six recorded sets. Part
		// of the default suite; to be listed on a quieter host class.
		name: "colocate-rbtree",
		why:  "two rbtree:rubic stacks share the CPUs: the only workload where controllers, tuner and SetLevel do work",
		stacks: []stackDef{
			rbtreeStack("p1", colocatePool, 2),
			rbtreeStack("p2", colocatePool, 2),
		},
		body: bodyNone,
	},
	{
		// Contended repro for the TL2 lost-increment defect (README, Known
		// defect): not listed until its verification stops failing.
		name:    "kv-hot-2w",
		why:     "2 workers on 16 keys, 99% increments: contended TL2 commits (repro for the lost-increment defect)",
		stacks:  []stackDef{kvStack(1, 2, 16)},
		repro:   true,
		readPct: 1,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
