package stm

import (
	"errors"
	"runtime"
	"time"
)

// retrySignal is the sentinel panic payload of Tx.Retry.
type retrySignal struct{}

// ErrRetryWithoutReads is returned by Atomic when a transaction calls Retry
// before reading anything: with an empty watch set the block could never be
// woken.
var ErrRetryWithoutReads = errors.New("stm: Retry with an empty read set")

// Retry aborts the current attempt and blocks the atomic block until at
// least one location the attempt has read changes, then re-executes it —
// the classic composable blocking primitive (Harris et al.'s `retry`).
//
// Typical use, a blocking queue consumer:
//
//	err := rt.Atomic(func(tx *stm.Tx) error {
//	    v, ok := q.Pop(tx)
//	    if !ok {
//	        tx.Retry() // sleeps until the queue changes
//	    }
//	    consume(v)
//	    return nil
//	})
//
// Retry never returns; like a conflict, it unwinds the attempt internally.
func (tx *Tx) Retry() {
	panic(retrySignal{})
}

// waitForChange blocks until a location in the attempt's watch set (the
// TL2 read set or the NOrec value log) changes, polling with escalating
// pauses. It returns an error when there is nothing to watch.
func (tx *Tx) waitForChange() error {
	watchTL2 := make([]readEntry, len(tx.reads))
	copy(watchTL2, tx.reads)
	watchNOrec := make([]valueRead, len(tx.vreads))
	copy(watchNOrec, tx.vreads)
	if len(watchTL2) == 0 && len(watchNOrec) == 0 {
		return ErrRetryWithoutReads
	}
	for spin := 0; ; spin++ {
		// A drain waits for this Tx to park, and the write that would wake
		// it may come from a transaction parked behind the gate. Treat the
		// switch as a spurious wakeup: re-enter, which parks until the drain
		// is over, and re-execute the block under the (possibly new) engine.
		if tx.rt.swGate.Load() != 0 {
			tx.rt.enter(tx)
			return nil
		}
		for i := range watchTL2 {
			e := &watchTL2[i]
			if e.base.meta.Load() != e.meta {
				return nil
			}
		}
		for i := range watchNOrec {
			if watchNOrec[i].changed() {
				return nil
			}
		}
		// Escalate from busy yielding to short sleeps; wake latency stays
		// in the tens of microseconds while idle waiters cost little.
		switch {
		case spin < 64:
			runtime.Gosched()
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
}
