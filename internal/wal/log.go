package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rubic/internal/fault"
	"rubic/internal/metrics"
	"rubic/internal/stm"
)

// FsyncPolicy selects when the log goroutine forces batches to stable
// storage, trading commit latency against the window of acked-but-volatile
// commits.
type FsyncPolicy uint8

const (
	// FsyncAlways fsyncs every batch and blocks each durable committer until
	// its CSN is on stable storage (group commit: one fsync covers every
	// record in the batch). Survives power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer; committers never block. Acked commits
	// are on stable storage within one interval. Survives power loss up to
	// that window.
	FsyncInterval
	// FsyncOS writes batches without explicit fsync and acks on write; the
	// page cache owns persistence. Written records survive a process kill
	// (the kernel holds them), but not power loss.
	FsyncOS
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOS:
		return "os"
	}
	return "unknown"
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "os":
		return FsyncOS, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or os)", s)
}

// Defaults and sizing for the log goroutine.
const (
	// defaultRingSize holds one drain tick's worth of small commits at a few
	// hundred thousand commits per second; faster committers reach the
	// half-full mark first and wake the logger themselves.
	defaultRingSize = 4096
	maxBatchBytes   = 1 << 20
	// ringFullSpins bounds how long a committer polls a full ring before it
	// parks: a drain in progress frees slots within microseconds, anything
	// longer (a snapshot, a stalled fsync) is not worth a processor.
	ringFullSpins = 64
	// The default compaction rule: snapshot once the bytes logged since the
	// last snapshot reach compactFactor times that snapshot's size, and at
	// least compactFloor. Snapshot bytes written per log byte, and log bytes
	// replayed after a crash per byte of state, are both bounded by the
	// factor whatever the commit rate.
	compactFactor = 4
	compactFloor  = 4 << 20
)

// defaultFsyncInterval is the default Options.Interval.
var defaultFsyncInterval = 5 * time.Millisecond

// Options parameterizes Open.
type Options struct {
	// Dir is the log directory (created if absent). One Log owns it.
	Dir string
	// Policy is the fsync policy; the zero value is FsyncAlways.
	Policy FsyncPolicy
	// Interval is the asynchronous policies' drain tick: the longest a
	// published commit waits before it is written (FsyncOS) or written and
	// fsynced (FsyncInterval). 0 means the default (5ms).
	Interval time.Duration
	// SnapshotEvery compacts the log after this many records; 0 means the
	// default, which is by size instead — once the bytes logged since the
	// last snapshot reach 4x that snapshot's size (at least 4 MiB) — and
	// negative disables periodic snapshots.
	SnapshotEvery int
	// RingSize bounds the commit ring (rounded up to a power of two);
	// 0 means the default (4096).
	RingSize int
	// Faults is the chaos injector for the wal.* points; nil is inert.
	Faults *fault.Injector
	// OnCrash is invoked after an injected torn batch write (fault.WALTorn)
	// — the simulated power cut. The chaos agent installs os.Exit here; nil
	// leaves the log in its durability-lost state and keeps running (unit
	// tests recover the directory afterwards).
	OnCrash func()
}

// Recovered describes what Open reconstructed from the directory.
type Recovered struct {
	// LastCSN is the last commit in the recovered prefix (0 = empty log).
	LastCSN uint64
	// SnapshotCSN is the compaction point the prefix was rebuilt from.
	SnapshotCSN uint64
	// Records counts log records replayed on top of the snapshot.
	Records uint64
	// Torn reports that replay stopped before the end of the log bytes —
	// a torn tail (expected after a crash) or detected corruption. Note
	// says which and where.
	Torn bool
	Note string
}

// Log is a write-ahead log implementing stm.CommitSink: committed durable
// write-sets enter through BeginCommit/Publish/WaitDurable and reach an
// append-only segment file in CSN order. See the package comment for the
// pipeline and DESIGN.md §13 for the recovery invariant.
type Log struct {
	// csn is the last assigned CSN (BeginCommit cursor) and with it the ring
	// position of the next record. Every durable commit writes it, so it is
	// alone on its cache line: nothing a committer or the logger polls moves
	// with it.
	csn metrics.PaddedUint64

	opts Options
	dir  string

	durable atomic.Uint64 // highest acked-durable CSN
	lost    atomic.Bool   // durability lost: log degraded to in-memory mode
	closed  atomic.Bool

	mu       sync.Mutex // guards cond, space, lostErr, lostHook
	cond     *sync.Cond // FsyncAlways committers waiting for the watermark
	space    *sync.Cond // committers parked on a full ring
	parked   atomic.Int32
	lostErr  error
	lostHook func(error)

	ring  *ring
	wake  chan struct{}
	stopc chan struct{}
	done  chan struct{}

	rec Recovered

	// Counters for telemetry and tests.
	nBatches   atomic.Uint64
	nRecords   atomic.Uint64
	nSnapshots atomic.Uint64
	nRingFull  atomic.Uint64

	// Log-goroutine-owned state, written per record: kept off the lines
	// committers read. state is the materialized image of the written prefix:
	// after framing record n it equals an exact replay of CSNs 1..n, which is
	// what makes snapshots trivially consistent.
	_        [64]byte
	f        *os.File
	state    map[uint64][]byte
	batch    []byte
	next     uint64 // next CSN to frame
	written  uint64 // last CSN written to the segment
	segStart uint64

	// Compaction bookkeeping: records and bytes framed since the last
	// snapshot, that snapshot's size, and what the next one reuses — the
	// ascending id list (rebuilt only after a new id appeared) and the
	// encode buffer.
	sinceSnap      int
	bytesSinceSnap int
	snapBytes      int
	ids            []uint64
	snapBuf        []byte
}

// Open recovers the directory's durable prefix (snapshot + segments),
// compacts it into a fresh snapshot, starts a new segment and the log
// goroutine, and returns the ready Log. Inspect Recovered for what was
// replayed, then ApplyTo a Registry to load the state into the runtime's
// Vars before attaching the Log as the runtime's CommitSink.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultFsyncInterval
	}
	if opts.RingSize <= 0 {
		opts.RingSize = defaultRingSize
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	state, rec, err := recoverDir(opts.Dir, opts.Faults)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:    opts,
		dir:     opts.Dir,
		ring:    newRing(opts.RingSize, rec.LastCSN),
		wake:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
		rec:     rec,
		state:   state,
		next:    rec.LastCSN + 1,
		written: rec.LastCSN,
	}
	l.cond = sync.NewCond(&l.mu)
	l.space = sync.NewCond(&l.mu)
	l.csn.Store(rec.LastCSN)
	l.durable.Store(rec.LastCSN)
	// Compact on open: persist the recovered prefix as one snapshot, start a
	// fresh segment above it, and drop the files it subsumes. A crash at any
	// point leaves either the old files or the new snapshot — both recover
	// the same prefix.
	if rec.LastCSN > 0 {
		if err := l.writeSnapshotAt(rec.LastCSN); err != nil {
			return nil, err
		}
	}
	if err := l.openSegment(rec.LastCSN + 1); err != nil {
		return nil, err
	}
	l.deleteOtherSegments()
	go l.run()
	return l, nil
}

// Recovered reports what Open reconstructed.
func (l *Log) Recovered() Recovered { return l.rec }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastCSN returns the highest commit sequence number assigned so far.
func (l *Log) LastCSN() uint64 { return l.csn.Load() }

// DurableCSN returns the ack watermark: every commit with CSN at or below
// it is durable under the configured policy.
func (l *Log) DurableCSN() uint64 { return l.durable.Load() }

// Batches, Records and Snapshots count the log goroutine's work since Open:
// write calls, the records they carried (Records/Batches is the group-commit
// factor), and snapshots taken. RingFullWaits counts the times a committer
// parked on a full ring.
func (l *Log) Batches() uint64       { return l.nBatches.Load() }
func (l *Log) Records() uint64       { return l.nRecords.Load() }
func (l *Log) Snapshots() uint64     { return l.nSnapshots.Load() }
func (l *Log) RingFullWaits() uint64 { return l.nRingFull.Load() }

// Lost reports whether durability has been lost (fsync or write failure,
// torn-write injection): the runtime keeps committing in memory, but acks
// above the returned watermark are off. The error describes the cause.
func (l *Log) Lost() (bool, error) {
	if !l.lost.Load() {
		return false, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return true, l.lostErr
}

// SetLostHook installs the durability-lost escalation callback (colocate's
// stack lifecycle points it at HealthGuard). If durability is already lost
// the hook fires immediately on this goroutine.
func (l *Log) SetLostHook(f func(error)) {
	l.mu.Lock()
	if l.lost.Load() {
		err := l.lostErr
		l.mu.Unlock()
		if f != nil {
			f(err)
		}
		return
	}
	l.lostHook = f
	l.mu.Unlock()
}

// BeginCommit implements stm.CommitSink: it assigns the next CSN. Called
// inside commit critical sections; a single wait-free fetch-and-add.
//
//rubic:noalloc
func (l *Log) BeginCommit() uint64 { return l.csn.Add(1) }

// Publish implements stm.CommitSink: it encodes the committed write-set
// into the ring slot csn names. Under the asynchronous policies nobody waits
// for the log goroutine, so Publish does not wake it per record: it signals
// only when the backlog reaches half the ring while the logger sleeps, and
// the logger's drain tick bounds how long a record can sit otherwise. Under
// FsyncAlways the committer is about to block in WaitDurable, so the wake
// is immediate. A slot whose previous record the logger has not consumed is
// the commit path's backpressure (waitSpace). When durability is lost or the
// log closed the record is dropped: the prefix contract only covers acked
// commits, and the logger of a lost log no longer reads the ring.
//
//rubic:noalloc
func (l *Log) Publish(csn uint64, ops []stm.DurableOp) {
	if l.lost.Load() || l.closed.Load() {
		return
	}
	r := l.ring
	freed := r.freed.Load()
	if csn-freed > r.size {
		if freed = l.waitSpace(csn); csn-freed > r.size {
			return
		}
	}
	if !r.put(csn, ops) {
		l.markLost(errUnsupportedType)
	}
	if l.opts.Policy == FsyncAlways || r.wakeDue(csn-freed) {
		l.kick()
	}
}

// waitSpace is Publish on a full ring: the log goroutine is a whole ring
// behind csn. Poll briefly, then park until it has drained, and return the
// consumer cursor that makes room; markLost and Close release parked
// committers too, and those return a cursor that does not.
func (l *Log) waitSpace(csn uint64) (freed uint64) {
	r := l.ring
	for i := 0; i < ringFullSpins; i++ {
		if freed = r.freed.Load(); csn-freed <= r.size {
			return freed
		}
	}
	l.kick()
	l.mu.Lock()
	defer l.mu.Unlock()
	// The count goes up before the cursor is read again and the logger reads
	// it after publishing the cursor, so either this committer sees the room
	// or the logger sees it parked and broadcasts.
	l.parked.Add(1)
	defer l.parked.Add(-1)
	for {
		if freed = r.freed.Load(); csn-freed <= r.size || l.lost.Load() || l.closed.Load() {
			return freed
		}
		l.nRingFull.Add(1)
		l.space.Wait()
	}
}

// kick wakes the log goroutine, or leaves the wake queued if it is busy.
//
//rubic:noalloc
func (l *Log) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// release unparks committers waiting for ring space.
func (l *Log) release() {
	l.mu.Lock()
	l.space.Broadcast()
	l.mu.Unlock()
}

// WaitDurable implements stm.CommitSink: under FsyncAlways it blocks until
// csn is on stable storage (or durability is lost); the asynchronous
// policies return immediately.
func (l *Log) WaitDurable(csn uint64) {
	if l.opts.Policy != FsyncAlways {
		return
	}
	if l.durable.Load() >= csn || l.lost.Load() {
		return
	}
	l.mu.Lock()
	for l.durable.Load() < csn && !l.lost.Load() {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Close drains the ring, flushes and fsyncs the tail, writes a final
// snapshot and stops the log goroutine. Stop all transactional work first:
// a Publish racing Close may be dropped. Close returns the durability-lost
// cause, if any.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		<-l.done
		_, err := l.Lost()
		return err
	}
	l.release()
	close(l.stopc)
	<-l.done
	_, err := l.Lost()
	return err
}

// run is the log goroutine: sleep until signalled, drain, frame,
// group-commit, snapshot. It sleeps between drains even when records keep
// arriving — that is what makes a batch a group: the next drain starts when
// the backlog reaches half the ring (Publish's signal), when a committer
// finds the ring full, or at the drain tick. FsyncAlways has no tick; every
// Publish signals.
func (l *Log) run() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opts.Policy != FsyncAlways {
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		var ticked, stop bool
		l.ring.asleep.Store(true)
		select {
		case <-l.wake:
		case <-tick:
			ticked = true
		case <-l.stopc:
			stop = true
		}
		l.ring.asleep.Store(false)
		l.drain()
		if stop {
			l.syncTail()
			l.finalCompact()
			l.closeFile()
			return
		}
		if ticked {
			l.syncTail()
		}
	}
}

// drain writes out what was published before it started; records arriving
// meanwhile wait for the next signal or tick instead of being chased one
// write call at a time. A batch ends at maxBatchBytes and at the record that
// makes compaction due, so snapshots fall exactly where
// Options.SnapshotEvery puts them however many records one drain finds.
// (Compaction only becomes due by framing a record into the batch, and the
// snapshot after that batch resets it or loses the log, so it is never due
// while the batch is empty.)
func (l *Log) drain() {
	end := l.csn.Load()
	for {
		l.gather(end)
		if l.parked.Load() > 0 {
			l.release()
		}
		if len(l.batch) == 0 {
			return
		}
		l.commitBatch()
		l.maybeSnapshot()
	}
}

// gather moves published records up to CSN end into the batch, slot order
// being CSN order. It stops at a slot not yet published — the committer
// between BeginCommit and Publish owns it and is at most a few instructions
// behind — and hands the slots it has read back to the committers as it
// goes. A lost log reads nothing: Publish neither waits nor writes any more.
func (l *Log) gather(end uint64) {
	r := l.ring
	for l.next <= end && len(l.batch) < maxBatchBytes && !l.lost.Load() && !l.compactionDue() {
		rec, ok := r.get(l.next)
		if !ok {
			break
		}
		l.frame(rec)
		if l.next%freedEvery == 0 {
			r.freed.Store(l.next - 1)
		}
	}
	r.freed.Store(l.next - 1)
}

// foldOp applies one logged write to a state image: in place where the value
// keeps its length — one map lookup, where assigning costs a second hash.
func foldOp(state map[uint64][]byte, id uint64, val []byte) {
	if cur := state[id]; len(cur) == len(val) {
		copy(cur, val)
	} else {
		state[id] = append(cur[:0], val...)
	}
}

// frame appends one record payload to the batch and folds it into the
// materialized state image.
func (l *Log) frame(payload []byte) {
	l.batch = appendFrame(l.batch, payload)
	_, err := walkRecord(payload, func(id uint64, val []byte) { foldOp(l.state, id, val) })
	if err != nil {
		// Impossible for payloads our own encoder produced; fail safe.
		l.markLost(fmt.Errorf("wal: internal encoding error: %w", err))
		return
	}
	l.next++
	l.sinceSnap++
	l.bytesSinceSnap += frameHeader + len(payload)
}

// commitBatch writes the batch and advances the watermarks per policy. The
// torn-write and corruption faults act here, on the boundary between the
// in-memory batch and the file.
func (l *Log) commitBatch() {
	b := l.batch
	last := l.next - 1
	l.batch = b[:0]
	if l.lost.Load() {
		return
	}
	if fired, occ := l.opts.Faults.FireN(fault.WALTorn); fired {
		keep := int(l.opts.Faults.Payload(fault.WALTorn, occ) % uint64(len(b)))
		l.f.Write(b[:keep])
		l.f.Sync()
		l.markLost(fmt.Errorf("wal: injected torn write at batch %d (%d of %d bytes)", occ, keep, len(b)))
		if l.opts.OnCrash != nil {
			l.opts.OnCrash()
		}
		return
	}
	if fired, occ := l.opts.Faults.FireN(fault.WALCorrupt); fired {
		idx := int(l.opts.Faults.Payload(fault.WALCorrupt, occ) % uint64(len(b)))
		flip := byte(l.opts.Faults.Payload(fault.WALCorrupt, occ) >> 8)
		if flip == 0 {
			flip = 0xA5
		}
		b[idx] ^= flip
	}
	if _, err := l.f.Write(b); err != nil {
		l.markLost(fmt.Errorf("wal: segment write: %w", err))
		return
	}
	l.nRecords.Add(last - l.written)
	l.written = last
	l.nBatches.Add(1)
	switch l.opts.Policy {
	case FsyncAlways:
		if err := l.sync(); err != nil {
			l.markLost(err)
			return
		}
		l.setDurable(last)
	case FsyncOS:
		l.setDurable(last)
	case FsyncInterval:
		// The drain tick's syncTail advances the watermark.
	}
}

// syncTail force-syncs written-but-unsynced records (FsyncInterval's group
// fsync at the drain tick; also the close path's final flush).
func (l *Log) syncTail() {
	if l.lost.Load() || l.written <= l.durable.Load() {
		return
	}
	if err := l.sync(); err != nil {
		l.markLost(err)
		return
	}
	l.setDurable(l.written)
}

// sync fsyncs the segment, with the stall and error faults applied in that
// order (a sick disk is slow before it is dead).
func (l *Log) sync() error {
	if fired, occ := l.opts.Faults.FireN(fault.WALFsyncStall); fired {
		d := time.Duration(1+l.opts.Faults.Payload(fault.WALFsyncStall, occ)%5) * 10 * time.Millisecond
		time.Sleep(d)
	}
	if l.opts.Faults.Fire(fault.WALFsyncErr) {
		return errors.New("wal: injected fsync error")
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// setDurable advances the ack watermark and releases group-commit waiters.
// The store happens under the cond's mutex so a waiter cannot check the
// watermark, miss the broadcast, and sleep forever.
func (l *Log) setDurable(csn uint64) {
	l.mu.Lock()
	if csn > l.durable.Load() {
		l.durable.Store(csn)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// markLost degrades the log to in-memory mode: the flag flips once, waiters
// are released, the escalation hook fires. From here on Publish drops its
// record before it looks at the ring, so committers never block on a dead
// log and the log goroutine has nothing left to read.
func (l *Log) markLost(err error) {
	l.mu.Lock()
	if l.lost.Load() {
		l.mu.Unlock()
		return
	}
	l.lostErr = err
	l.lost.Store(true)
	hook := l.lostHook
	l.cond.Broadcast()
	l.space.Broadcast()
	l.mu.Unlock()
	if hook != nil {
		hook(err)
	}
}

// compactionDue applies Options.SnapshotEvery: an explicit record count, or
// by default the size rule (see compactFactor).
func (l *Log) compactionDue() bool {
	switch every := l.opts.SnapshotEvery; {
	case every < 0:
		return false
	case every > 0:
		return l.sinceSnap >= every
	}
	return l.bytesSinceSnap >= max(compactFloor, compactFactor*l.snapBytes)
}

// maybeSnapshot compacts when due: persist the state image, rotate to a
// fresh segment, drop the segment the snapshot subsumes.
func (l *Log) maybeSnapshot() {
	if l.lost.Load() || !l.compactionDue() {
		return
	}
	at, old := l.written, l.segStart
	if err := l.writeSnapshotAt(at); err != nil {
		l.markLost(err)
		return
	}
	l.closeFile()
	if err := l.openSegment(at + 1); err != nil {
		l.markLost(err)
		return
	}
	os.Remove(filepath.Join(l.dir, segName(old)))
}

// finalCompact runs on clean close: one snapshot covering everything, no
// segments left to replay on the next Open.
func (l *Log) finalCompact() {
	if l.lost.Load() || l.written == 0 || l.sinceSnap == 0 {
		return
	}
	if err := l.writeSnapshotAt(l.written); err != nil {
		l.markLost(err)
		return
	}
	l.closeFile()
	os.Remove(filepath.Join(l.dir, segName(l.segStart)))
}

// Segment file management. Names embed the first CSN the segment may
// contain, so recovery orders them lexically and compaction can drop a
// segment by name alone.

func segName(start uint64) string {
	return fmt.Sprintf("wal-%016x.log", start)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
	return start, err == nil
}

func (l *Log) openSegment(start uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(start)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.f = f
	l.segStart = start
	// Make the directory entry itself durable: a power cut must not lose
	// the file that holds fsynced frames.
	l.syncDir()
	return nil
}

func (l *Log) closeFile() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// deleteOtherSegments removes every segment but the live one. Open calls it
// once the recovered prefix is safe in a snapshot: older segments are
// subsumed by it and later ones lie beyond the point where replay stopped,
// so none may ever be replayed again. From then on the live segment is the
// only one, and rotation removes its predecessor by name.
func (l *Log) deleteOtherSegments() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if start, ok := parseSegName(e.Name()); ok && start != l.segStart {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// syncDir makes the directory's entries durable — a created, renamed or
// removed file survives a power cut. FsyncOS promises no more than the page
// cache and skips it, like every other fsync.
func (l *Log) syncDir() {
	if l.opts.Policy == FsyncOS {
		return
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return // directory sync is best-effort on exotic filesystems
	}
	d.Sync()
	d.Close()
}
