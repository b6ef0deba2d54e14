package stm

import (
	"fmt"
	"runtime"

	"rubic/internal/metrics"
)

// runtimeStats aggregates counters across all transactions of a Runtime.
// Counters are updated on hot paths only where the paper's instrumentation
// would (commits/aborts); per-read costs are avoided. Every counter is a
// cache-line padded sharded counter (the same metrics.ShardedCounter the
// worker pool uses for completion counts): a transaction adds to the shard
// its pooled Tx was assigned at construction, so commit accounting from
// different workers lands on different cache lines instead of bouncing one
// shared line across every core, and snapshot() folds the shards.
type runtimeStats struct {
	// A commit lands in exactly one of these; Stats.Commits is their sum.
	writerCommits   *metrics.ShardedCounter
	readOnlyCommits *metrics.ShardedCounter
	aborts          *metrics.ShardedCounter
	userAborts      *metrics.ShardedCounter
	extensions      *metrics.ShardedCounter
	retryWaits      *metrics.ShardedCounter
	conflicts       [conflictKinds]*metrics.ShardedCounter

	// Conflict-profile accumulators (see Runtime.noteCommit): set-size sums
	// over committed attempts, and popcount sums of the sampled committed
	// write signatures and of their overlap against the rolling aggregate.
	readSetSum  *metrics.ShardedCounter
	writeSetSum *metrics.ShardedCounter
	sigBits     *metrics.ShardedCounter
	sigOverlap  *metrics.ShardedCounter
}

// newRuntimeStats sizes every counter to the scheduler's parallelism: more
// shards than runnable goroutines buys nothing, and the count is rounded to
// a power of two internally.
func newRuntimeStats() runtimeStats {
	shards := runtime.GOMAXPROCS(0)
	rs := runtimeStats{
		writerCommits:   metrics.NewShardedCounter(shards),
		readOnlyCommits: metrics.NewShardedCounter(shards),
		aborts:          metrics.NewShardedCounter(shards),
		userAborts:      metrics.NewShardedCounter(shards),
		extensions:      metrics.NewShardedCounter(shards),
		retryWaits:      metrics.NewShardedCounter(shards),
		readSetSum:      metrics.NewShardedCounter(shards),
		writeSetSum:     metrics.NewShardedCounter(shards),
		sigBits:         metrics.NewShardedCounter(shards),
		sigOverlap:      metrics.NewShardedCounter(shards),
	}
	for k := range rs.conflicts {
		rs.conflicts[k] = metrics.NewShardedCounter(shards)
	}
	return rs
}

// Stats is an immutable snapshot of a Runtime's counters.
type Stats struct {
	// Commits counts successfully committed transactions, including
	// read-only ones.
	Commits uint64
	// ReadOnlyCommits counts commits that wrote nothing.
	ReadOnlyCommits uint64
	// Aborts counts attempts rolled back due to conflicts (each retry of the
	// same atomic block counts once).
	Aborts uint64
	// UserAborts counts atomic blocks abandoned because the user function
	// returned an error.
	UserAborts uint64
	// Extensions counts successful read-version extensions.
	Extensions uint64
	// RetryWaits counts Tx.Retry blocks that woke and re-executed.
	RetryWaits uint64
	// Conflicts breaks Aborts down by cause.
	Conflicts map[ConflictKind]uint64

	// ReadSetSum is the total read-set (TL2) plus value-log (NOrec) entries
	// across committed attempts; WriteSetSum the total write-set entries
	// across committed writers; both are exact. SigBits/SigOverlap are
	// popcount sums of committed write signatures and of their overlap with
	// the rolling signature aggregate, taken over a sample of the writer
	// commits (one in sigSampleEvery) — only their ratio means anything, and
	// it is the raw material of ConflictProfile.
	ReadSetSum  uint64
	WriteSetSum uint64
	SigBits     uint64
	SigOverlap  uint64
}

// AbortRatio returns aborts / (commits + aborts), the wasted-work measure
// used by abort-ratio-driven tuners in the related work.
func (s Stats) AbortRatio() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// String renders the snapshot compactly.
func (s Stats) String() string {
	return fmt.Sprintf("commits=%d (ro=%d) aborts=%d (ratio=%.3f) user-aborts=%d extensions=%d",
		s.Commits, s.ReadOnlyCommits, s.Aborts, s.AbortRatio(), s.UserAborts, s.Extensions)
}

func (rs *runtimeStats) snapshot() Stats {
	readOnly := rs.readOnlyCommits.Sum()
	out := Stats{
		Commits:         readOnly + rs.writerCommits.Sum(),
		ReadOnlyCommits: readOnly,
		Aborts:          rs.aborts.Sum(),
		UserAborts:      rs.userAborts.Sum(),
		Extensions:      rs.extensions.Sum(),
		RetryWaits:      rs.retryWaits.Sum(),
		Conflicts:       make(map[ConflictKind]uint64, int(conflictKinds)),
		ReadSetSum:      rs.readSetSum.Sum(),
		WriteSetSum:     rs.writeSetSum.Sum(),
		SigBits:         rs.sigBits.Sum(),
		SigOverlap:      rs.sigOverlap.Sum(),
	}
	for k := ConflictKind(0); k < conflictKinds; k++ {
		if n := rs.conflicts[k].Sum(); n > 0 {
			out.Conflicts[k] = n
		}
	}
	return out
}

func (rs *runtimeStats) reset() {
	rs.writerCommits.Reset()
	rs.readOnlyCommits.Reset()
	rs.aborts.Reset()
	rs.userAborts.Reset()
	rs.extensions.Reset()
	rs.retryWaits.Reset()
	rs.readSetSum.Reset()
	rs.writeSetSum.Reset()
	rs.sigBits.Reset()
	rs.sigOverlap.Reset()
	for k := range rs.conflicts {
		rs.conflicts[k].Reset()
	}
}
