package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rubic/internal/metrics"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// Span names, one per layer boundary the benchmark can see from outside.
// A span's parent is fixed by its name, and the spans of one request share
// the request's id.
const (
	spanRequest    uint8 = iota // due → done
	spanGenLate                 // due → offered to the admission queue
	spanQueueWait               // offered → popped by the worker
	spanDispatch                // popped → first call into the runtime
	spanTxn                     // one Atomic/AtomicRO call
	spanBody                    // one execution of the transaction closure
	spanFastPath                // one non-transactional index read
	spanWalBegin                // CommitSink.BeginCommit
	spanWalPublish              // CommitSink.Publish
	spanWalWait                 // CommitSink.WaitDurable
	spanKinds
)

var spanNames = [spanKinds]string{"request", "gen_late", "queue_wait", "dispatch", "txn", "body", "fastpath", "wal.begin", "wal.publish", "wal.wait"}

// spanParent names each span's causing span; the request is the root.
var spanParent = [spanKinds]uint8{spanRequest, spanRequest, spanRequest, spanRequest, spanRequest, spanTxn, spanRequest, spanTxn, spanTxn, spanTxn}

// benchLayer owns the request span's self time: what no layer's span
// covers (clock reads and span records between the children).
const benchLayer = "bench"

// spanLayer attributes each span's self time to a package.
var spanLayer = [spanKinds]string{benchLayer, "load", "load", "pool", "stm", "container", "blink", "wal", "wal", "wal"}

// span is one recorded interval; req is the request's id.
type span struct {
	req        uint64
	name       uint8
	start, end int64 // ns since origin, monotonic
}

// origin anchors every span timestamp of the process.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

func sinceOrigin(t time.Time) int64 { return int64(t.Sub(origin)) }

// spanBuf is a preallocated single-writer span buffer; spans past its
// capacity are counted, not stored.
type spanBuf struct {
	spans   []span
	dropped int
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(req uint64, name uint8, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{req: req, name: name, start: start, end: end})
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		parent := `null`
		if s.name != spanRequest {
			parent = `"` + spanNames[spanParent[s.name]] + `"`
		}
		fmt.Fprintf(w, `{"req":%d,"span":"%s","parent":%s,"layer":"%s","start_ns":%d,"end_ns":%d}`+"\n",
			s.req, spanNames[s.name], parent, spanLayer[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSink is the timing decorator around *wal.Log, installed with
// Runtime.AttachCommitSink: it forwards every call and times one in
// sinkStride of each kind. When buf is set (the traced replica, one
// worker) it records every call as a span of the current request instead.
type timedSink struct {
	log *wal.Log

	calls          atomic.Uint64
	begin, publish timeSum
	wait           metrics.Hist

	buf *spanBuf
	req uint64
}

// timeSum accumulates sampled durations; safe for concurrent committers.
type timeSum struct {
	ns, n atomic.Int64
}

func (t *timeSum) add(d time.Duration) {
	t.ns.Add(int64(d))
	t.n.Add(1)
}

// mean returns the mean sampled duration in nanoseconds, less the cost of
// the clock reads around it.
func (t *timeSum) mean() float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return lessClock(float64(t.ns.Load()) / float64(n))
}

const sinkStride = 8

func (s *timedSink) BeginCommit() uint64 {
	if s.buf != nil {
		t0 := now()
		csn := s.log.BeginCommit()
		s.buf.add(s.req, spanWalBegin, t0, now())
		return csn
	}
	// BeginCommit runs inside the commit critical section, before the CSN
	// exists, so it samples on its own counter; the other two use the CSN.
	if s.calls.Add(1)%sinkStride != 0 {
		return s.log.BeginCommit()
	}
	t0 := time.Now()
	csn := s.log.BeginCommit()
	s.begin.add(time.Since(t0))
	return csn
}

func (s *timedSink) Publish(csn uint64, ops []stm.DurableOp) {
	if s.buf == nil && csn%sinkStride != 0 {
		s.log.Publish(csn, ops)
		return
	}
	t0 := time.Now()
	s.log.Publish(csn, ops)
	if s.buf != nil {
		s.buf.add(s.req, spanWalPublish, sinceOrigin(t0), now())
		return
	}
	s.publish.add(time.Since(t0))
}

func (s *timedSink) WaitDurable(csn uint64) {
	if s.buf == nil && csn%sinkStride != 0 {
		s.log.WaitDurable(csn)
		return
	}
	t0 := time.Now()
	s.log.WaitDurable(csn)
	if s.buf != nil {
		s.buf.add(s.req, spanWalWait, sinceOrigin(t0), now())
		return
	}
	s.wait.Record(time.Since(t0))
}
