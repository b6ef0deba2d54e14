package stm

import (
	"runtime"

	"rubic/internal/metrics"
)

// This file implements the NOrec algorithm (Dalessandro, Spear & Scott,
// PPoPP 2010) as an alternative engine behind the same Runtime/Var/Tx API:
// no per-location ownership records; a single global sequence lock
// serializes write-back, and readers validate by value. Writers buffer
// everything and acquire nothing until commit, so transactions never block
// each other mid-flight; the cost is serialized commits and value-log
// revalidation whenever any writer commits.
//
// The paper's substrate, RSTM, is precisely such a multi-algorithm
// framework; Config.Algorithm selects between the default TL2/SwissTM-style
// engine (eager per-location locking) and NOrec. Vars, containers and
// workloads are engine-agnostic.

// Algorithm selects a Runtime's concurrency-control engine.
type Algorithm uint8

const (
	// TL2 is the default engine: per-location versioned locks, eager write
	// locking, invisible readers with timestamp validation (TL2/SwissTM).
	TL2 Algorithm = iota
	// NOrec is the value-validating engine with a single commit seqlock.
	NOrec
)

func (a Algorithm) String() string {
	switch a {
	case TL2:
		return "tl2"
	case NOrec:
		return "norec"
	}
	return "unknown"
}

// norecState is the NOrec global: a sequence lock, odd while a writer is in
// its write-back phase. Like the TL2 clock it is the single word every
// transaction polls and every writer commit CASes, so it is cache-line
// padded to keep commit write-backs from false-sharing with the Runtime's
// read-mostly neighbors.
type norecState struct {
	// seq is odd exactly while a writer is in write-back; readers sample it,
	// read, and re-check. Every use site must follow that protocol
	// (rubic/seqlockproto verifies it).
	//
	//rubic:seqlock
	seq metrics.PaddedUint64
}

// valueRead is one value-log entry: the location and the value observed.
// Validation is NOrec's, by value: a scalar or pointer that went A→B→A since
// the read validates, as the algorithm intends. A box validates by address;
// every write publishes a fresh one and the log keeps the observed one
// alive, so an equal address is an unchanged value.
type valueRead struct {
	base *varBase
	val  raw
}

// changed reports whether the location no longer holds the logged value.
//
//rubic:noalloc
func (r *valueRead) changed() bool { return r.base.load() != r.val }

// publishNorec is the NOrec write-back of one entry, under the sequence lock.
//
//rubic:noalloc
func (w *writeEntry) publishNorec() {
	w.base.store(w.val, w.k)
	// Keep the location's version moving so Var.Version and the TL2-style
	// consistent sampling remain meaningful.
	w.base.meta.Add(1 << 1)
}

// waitEven spins until the sequence lock is even (no write-back in
// progress) and returns its value.
//
//rubic:noalloc
func (n *norecState) waitEven() uint64 {
	for {
		s := n.seq.Load()
		if s&1 == 0 {
			return s
		}
		runtime.Gosched()
	}
}

// readNorec is the NOrec read protocol: consistent value sampling against
// the global sequence lock, with full value-log revalidation whenever a
// concurrent commit moved the clock.
//
//rubic:noalloc
func (tx *Tx) readNorec(b *varBase) raw {
	tx.checkAlive()
	tx.work++
	if i := tx.findWrite(b); i >= 0 {
		return tx.writes[i].val
	}
	for {
		s1 := tx.rt.norec.waitEven()
		if s1 != tx.rv {
			if !tx.revalidateNorec() {
				tx.conflict(ConflictStaleRead)
			}
			continue
		}
		v := b.load()
		s2 := tx.rt.norec.seq.Load()
		if s1 != s2 {
			continue
		}
		//lint:ignore rubic/noalloc value-log capacity is retained across retries and pooled reuse; growth amortizes to zero
		tx.vreads = append(tx.vreads, valueRead{base: b, val: v})
		return v
	}
}

// vreadsChanged reports whether any logged location changed value.
//
//rubic:noalloc
func (tx *Tx) vreadsChanged() bool {
	for i := range tx.vreads {
		if tx.vreads[i].changed() {
			return true
		}
	}
	return false
}

// revalidateNorec re-reads every logged location, adopting the new snapshot
// when none changed.
//
//rubic:noalloc
func (tx *Tx) revalidateNorec() bool {
	for {
		s := tx.rt.norec.waitEven()
		if tx.vreadsChanged() {
			return false
		}
		if tx.rt.norec.seq.Load() == s {
			tx.rv = s
			tx.rt.stats.extensions.Add(tx.shard, 1)
			return true
		}
	}
}

// writeNorec buffers the write; NOrec acquires nothing before commit.
//
//rubic:noalloc
func (tx *Tx) writeNorec(b *varBase, v raw, k kind) {
	tx.checkAlive()
	tx.work++
	if tx.readOnly {
		panic("stm: write inside a read-only transaction")
	}
	if i := tx.findWrite(b); i >= 0 {
		tx.writes[i].val = v
		return
	}
	tx.appendWrite(writeEntry{base: b, val: v, k: k})
}

// commitNorec serializes on the global sequence lock: validate the value
// log, publish the writes, release.
func (tx *Tx) commitNorec() bool {
	if len(tx.writes) == 0 {
		return true
	}
	for {
		s := tx.rt.norec.waitEven()
		if s != tx.rv && !tx.revalidateNorecAt(s) {
			tx.setState(txAborted)
			tx.rt.stats.conflicts[ConflictValidation].Add(tx.shard, 1)
			return false
		}
		if !tx.rt.norec.seq.CompareAndSwap(s, s+1) {
			continue // lost the lock race; re-check
		}
		tx.wv = s >> 1
		// The CSN is drawn under the sequence lock: NOrec writer commits
		// serialize here, so CSN order is exactly commit order (durable.go).
		tx.beginDurable()
		for i := range tx.writes {
			tx.writes[i].publishNorec()
		}
		// No txCommitted store: no NOrec block is ever an owner, so nothing
		// reads its status until release poisons it.
		tx.rt.norec.seq.Store(s + 2)
		tx.publishDurable()
		return true
	}
}

// revalidateNorecAt validates the value log at a specific even sequence
// value (pre-commit validation holds no lock; the CAS re-checks s).
func (tx *Tx) revalidateNorecAt(s uint64) bool {
	if tx.vreadsChanged() {
		return false
	}
	tx.rv = s
	return true
}

// rollbackNorec: nothing is held; just mark the attempt.
func (tx *Tx) rollbackNorec() {
	tx.setState(txAborted)
}
