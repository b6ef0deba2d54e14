package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"rubic/internal/load"
	"rubic/internal/pool"
	"rubic/internal/stm"
	"rubic/internal/stm/container"
	"rubic/internal/stm/container/blink"
	"rubic/internal/wal"
)

// steadyRate is the open-loop phases' offered load: a few percent of one
// worker's capacity on every workload, so the queue is almost always empty
// and what the phases measure is the path's latency, not its saturation.
const steadyRate = 20_000

// steadyQueueCap absorbs a 0.4 s stall of the host without shedding.
const steadyQueueCap = 8192

// replica is the benchmark's own copy of the open-loop serving path,
// assembled from the product's public pieces — load.Arrival, load.Zipf,
// load.Queue, pool.New, Runtime.Atomic/AtomicRO and the containers'
// methods — so that it can take a timestamp at every layer boundary, which
// the product's closed types do not allow from outside. The request bodies
// below restate load.KV.ServeKey and load.Ordered.ServeKey; one worker
// serves, so spans need no synchronization.
type replica struct {
	body    bodyKind
	readPct int
	keys    int

	rt   *stm.Runtime
	kv   *container.HashMap[int64]
	bm   *blink.Map[int64]
	log  *wal.Log
	sink *timedSink

	buf *spanBuf
	// Per-request state of the single worker.
	req      uint64
	popped   int64
	dispatch bool

	increments, misses int64
	taskFailure        uint64
}

func newReplica(def *workloadDef, walDir string, spanCap int) (*replica, error) {
	p := &replica{body: def.body, readPct: def.readPct, keys: kvKeys, rt: stm.New(stm.Config{}), buf: newSpanBuf(spanCap)}
	put := func(fn func(tx *stm.Tx)) error {
		return p.rt.Atomic(func(tx *stm.Tx) error { fn(tx); return nil })
	}
	switch def.body {
	case bodyKV:
		p.kv = container.NewHashMap[int64](p.keys / 4)
		for i := int64(0); i < int64(p.keys); i++ {
			if err := put(func(tx *stm.Tx) { p.kv.Put(tx, i, 0) }); err != nil {
				return nil, err
			}
		}
	case bodyOrdered:
		p.bm = blink.NewMap[int64]()
		for i := int64(0); i < int64(p.keys); i++ {
			if err := put(func(tx *stm.Tx) { p.bm.Put(tx, i, 0) }); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("workload %s has no replica body", def.name)
	}
	if !def.durable {
		return p, nil
	}
	dir, err := os.MkdirTemp(walDir, "replica-")
	if err != nil {
		return nil, err
	}
	reg := wal.NewRegistry()
	if err := p.rt.AtomicRO(func(tx *stm.Tx) error {
		for i := 0; i < p.keys; i++ {
			if err := wal.RegisterVar(reg, uint64(i)+1, p.kv.EntryVar(tx, int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if p.log, err = wal.Open(wal.Options{Dir: dir, Policy: wal.FsyncOS}); err != nil {
		return nil, err
	}
	if err := p.log.ApplyTo(reg); err != nil {
		p.log.Close()
		return nil, err
	}
	p.sink = &timedSink{log: p.log, buf: p.buf}
	p.rt.AttachCommitSink(p.sink)
	return p, nil
}

// txn runs one transaction, recording the call and each execution of its
// body (a retry shows as a second body under the same txn).
func (p *replica) txn(readOnly bool, body func(tx *stm.Tx)) bool {
	t0 := p.enter()
	fn := func(tx *stm.Tx) error {
		b0 := now()
		body(tx)
		p.buf.add(p.req, spanBody, b0, now())
		return nil
	}
	var err error
	if readOnly {
		err = p.rt.AtomicRO(fn)
	} else {
		err = p.rt.Atomic(fn)
	}
	p.buf.add(p.req, spanTxn, t0, now())
	return err == nil
}

// fast runs one non-transactional index read.
func (p *replica) fast(read func()) {
	t0 := p.enter()
	read()
	p.buf.add(p.req, spanFastPath, t0, now())
}

// enter stamps the first call into the runtime, closing the request's
// dispatch span (popped → here).
func (p *replica) enter() int64 {
	t0 := now()
	if p.dispatch {
		p.dispatch = false
		p.buf.add(p.req, spanDispatch, p.popped, t0)
	}
	return t0
}

func (p *replica) serve(key uint64, rng *rand.Rand) bool {
	switch p.body {
	case bodyKV:
		id := int64(key % uint64(p.keys))
		if rng.Intn(100) < p.readPct {
			found := false
			ok := p.txn(true, func(tx *stm.Tx) { _, found = p.kv.Get(tx, id) })
			if ok && !found {
				p.misses++
			}
			return ok
		}
		ok := p.txn(false, func(tx *stm.Tx) {
			v, _ := p.kv.Get(tx, id)
			p.kv.Put(tx, id, v+1)
		})
		if ok {
			p.increments++
		}
		return ok
	default: // bodyOrdered
		// load.OrderedConfig defaults: 70% lookups (alternating fast path
		// and transaction), 20% scans of 64, 10% increments.
		const readPct, scanPct, scanWidth = 70, 20, 64
		id := int64(key % uint64(p.keys))
		op := rng.Intn(100)
		switch {
		case op < readPct:
			found, ok := false, true
			if op&1 == 0 {
				p.fast(func() { _, found = p.bm.LookupFast(id) })
			} else {
				ok = p.txn(true, func(tx *stm.Tx) { _, found = p.bm.Get(tx, id) })
			}
			if ok && !found {
				p.misses++
			}
			return ok
		case op < readPct+scanPct:
			n := int64(0)
			p.fast(func() {
				p.bm.ScanFast(id, id+scanWidth-1, func(k, v int64) bool { n++; return true })
			})
			if want := min(int64(scanWidth), int64(p.keys)-id); n < want {
				p.misses++
			}
			return true
		}
		ok := p.txn(false, func(tx *stm.Tx) {
			v, _ := p.bm.Get(tx, id)
			p.bm.Put(tx, id, v+1)
		})
		if ok {
			p.increments++
		}
		return ok
	}
}

// verify checks the replica's own invariants, the ones the product's
// workloads check: no miss on a populated key, and the stored values
// account for exactly the committed updates.
func (p *replica) verify() error {
	if p.misses != 0 {
		return fmt.Errorf("replica saw %d misses on populated keys", p.misses)
	}
	var sum int64
	var problem string
	err := p.rt.AtomicRO(func(tx *stm.Tx) error {
		total, found := int64(0), "" // closure-local: retry-safe
		add := func(_, v int64) bool { total += v; return true }
		switch p.body {
		case bodyKV:
			p.kv.Range(tx, add)
		case bodyOrdered:
			if err := p.bm.CheckInvariants(tx); err != nil {
				found = err.Error()
			}
			p.bm.Range(tx, add)
		}
		sum, problem = total, found
		return nil
	})
	if err != nil {
		return err
	}
	if problem != "" {
		return fmt.Errorf("replica: %s", problem)
	}
	if sum != p.increments {
		return fmt.Errorf("replica value sum %d != committed increments %d", sum, p.increments)
	}
	return nil
}

// replicaOutcome is the traced open-loop phase's result.
type replicaOutcome struct {
	spans         []span
	dropped       int
	arrived, shed uint64
	failures      uint64
	verifyErr     error
}

// runReplica offers Poisson arrivals at steadyRate for dur, exactly as
// load.Server.Run's generator does (absolute schedule, sleeping between
// arrivals, overdue arrivals emitted back-to-back), and serves them on a
// pool of one.
func runReplica(def *workloadDef, seed int64, dur time.Duration, walDir string) (*replicaOutcome, error) {
	expect := int(dur.Seconds()*steadyRate*1.3) + 4096
	p, err := newReplica(def, walDir, expect*8)
	if err != nil {
		return nil, err
	}
	if p.log != nil {
		defer p.log.Close()
	}
	arrival, err := load.NewPoisson(steadyRate, seed)
	if err != nil {
		return nil, err
	}
	keys, err := load.NewZipf(uint64(p.keys), load.DefaultTheta, seed)
	if err != nil {
		return nil, err
	}
	queue, err := load.NewQueue(steadyQueueCap)
	if err != nil {
		return nil, err
	}
	dues := make([]int64, expect)

	pl, err := pool.New(1, seed+1, func(_ int, rng *rand.Rand) bool {
		req, ok := queue.Pop()
		if !ok {
			return false
		}
		p.popped = now()
		p.req, p.dispatch = req.Seq, true
		if p.sink != nil {
			p.sink.req = req.Seq
		}
		due, offered := dues[req.Seq], sinceOrigin(req.Arrival)
		p.buf.add(req.Seq, spanGenLate, due, offered)
		p.buf.add(req.Seq, spanQueueWait, offered, p.popped)
		done := p.serve(req.Key, rng)
		p.buf.add(req.Seq, spanRequest, due, now())
		if !done {
			p.taskFailure++
		}
		return done
	})
	if err != nil {
		return nil, err
	}

	var arrived uint64
	stop := make(chan struct{})
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		if !timer.Stop() {
			<-timer.C
		}
		next := time.Now()
		for seq := uint64(0); seq < uint64(len(dues)); seq++ {
			next = next.Add(arrival.Next())
			if wait := time.Until(next); wait > 0 {
				timer.Reset(wait)
				select {
				case <-stop:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			dues[seq] = sinceOrigin(next)
			queue.Offer(load.Request{Key: keys.Next(), Seq: seq, Arrival: time.Now()})
			arrived = seq + 1
		}
	}()
	pl.SetLevel(1)
	pl.Start()
	time.Sleep(dur)
	close(stop)
	gen.Wait()
	queue.Close()
	pl.Stop()

	out := &replicaOutcome{
		spans: p.buf.spans, dropped: p.buf.dropped,
		arrived: arrived, shed: queue.Shed(), failures: p.taskFailure,
	}
	out.verifyErr = p.verify()
	return out, nil
}

// budget is the latency budget computed from one phase's spans.
type budget struct {
	requests    int
	requestMean float64            // due → done, ns
	serviceMean float64            // popped → done, ns
	layerSelf   map[string]float64 // mean self time per request, ns
	// ratio is the self time of the layers that serve a popped request
	// (pool, stm, container, blink, wal) over serviceMean. The generator's
	// lateness and the queue wait are left out of both: they tile due →
	// popped by construction and, at >99% of the request, would hold the
	// ratio at 1 whatever the serving layers' spans say.
	ratio     float64
	genLate   []int32
	queueWait []int32
	txnSelf   []int32
	body      []int32
}

// computeBudget folds the spans into per-request self times: a span's self
// time is its duration minus its children's. Spans of one request are
// contiguous (one worker), so a single pass groups them.
func computeBudget(spans []span) budget {
	b := budget{layerSelf: map[string]float64{}}
	var requestSum, serviceSum float64
	var dur [spanKinds]int64
	flush := func() {
		if dur[spanRequest] == 0 {
			return
		}
		b.requests++
		requestSum += float64(dur[spanRequest])
		serviceSum += float64(dur[spanRequest] - dur[spanGenLate] - dur[spanQueueWait])
		var self [spanKinds]int64
		for k := uint8(0); k < spanKinds; k++ {
			self[k] += dur[k]
			if parent := spanParent[k]; parent != k {
				self[parent] -= dur[k]
			}
		}
		for k := uint8(0); k < spanKinds; k++ {
			b.layerSelf[spanLayer[k]] += float64(self[k])
		}
		b.genLate = append(b.genLate, clampNs(time.Duration(dur[spanGenLate])))
		b.queueWait = append(b.queueWait, clampNs(time.Duration(dur[spanQueueWait])))
		if dur[spanTxn] > 0 {
			b.txnSelf = append(b.txnSelf, clampNs(time.Duration(self[spanTxn])))
		}
	}
	cur := ^uint64(0)
	for _, s := range spans {
		if s.req != cur {
			flush()
			cur, dur = s.req, [spanKinds]int64{}
		}
		dur[s.name] += s.end - s.start
		if s.name == spanBody {
			b.body = append(b.body, clampNs(time.Duration(s.end-s.start)))
		}
	}
	flush()
	if b.requests == 0 {
		return b
	}
	n := float64(b.requests)
	b.requestMean, b.serviceMean = requestSum/n, serviceSum/n
	attributed := 0.0
	for layer := range b.layerSelf {
		b.layerSelf[layer] /= n
		if layer != benchLayer && layer != "load" {
			attributed += b.layerSelf[layer]
		}
	}
	b.ratio = attributed / b.serviceMean
	for _, s := range [][]int32{b.genLate, b.queueWait, b.txnSelf, b.body} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return b
}
