package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rubic/internal/colocate"
	"rubic/internal/core"
	"rubic/internal/metrics"
	"rubic/internal/stamp"
	"rubic/internal/stm"
	"rubic/internal/wal"
)

// loopConfig parameterizes one saturated closed-loop phase.
type loopConfig struct {
	seed    int64
	warm    time.Duration // closed loop before the first window
	windows int           // measured windows after the warm-up
	// walDir is the parent directory for durable stacks' logs; the caller
	// removes it (the restart check reads the logs after the run).
	walDir string
	// traced times every call, records a span per call, snapshots the
	// runtimes' statistics and routes durable commits through a timing
	// sink; untraced runs use the product's own Proc.Durable wiring.
	traced bool
}

// maxOpsPerWorker sizes the sample buffers: no single worker approaches
// 6M calls/s, so the buffers never fill (a fill is reported, not hidden).
const maxOpsPerWorker = 6_000_000

// stackOutcome is one stack's share of a closed-loop phase.
type stackOutcome struct {
	name       string
	ops        uint64  // calls completed inside the measured windows
	opsPerSec  float64 // ops over the measured interval
	meanLevel  float64 // time-averaged actuated level (pool size if pinned)
	decisions  int     // controller rounds inside the whole run
	levelMoves int     // rounds whose decision changed the level
	stats      stm.Stats
	faults     uint64 // recovered task panics (pool.Faults)
	taskFails  uint64 // task calls that returned false
	verifyErr  error
	wal        *colocate.WalResult
	walDir     string
	sink       *timedSink
}

// loopOutcome is the result of one closed-loop phase.
type loopOutcome struct {
	stacks []stackOutcome

	// Per-window series, summed over stacks: calls per second and the
	// percentiles of the window's sampled calls.
	windowOps, windowP50, windowP99 []float64
	coresBusy                       float64 // process CPU seconds per wall second

	// The gated numbers: each series' quietest window (stats.go).
	throughput float64
	p50us      float64
	p99us      float64
	cpuUsPerOp float64
	// Throughput, median and CPU per call over the whole measured interval, interference and
	// every garbage-collection cycle and log stall included: total calls ÷
	// wall time, the median of all samples, process CPU ÷ total calls.
	intervalThroughput float64
	intervalP50us      float64
	intervalCPUUsPerOp float64
	// stolen is the CPU time the hypervisor withheld from the guest during
	// the measured windows.
	stolen  time.Duration
	samples int
	capped  bool

	allocsPerOp     float64
	allocBytesPerOp float64
	gcPerSec        float64 // completed garbage-collection cycles per second

	jain           float64
	meanTotalLevel float64
	opsPerLevel    float64

	attempted uint64 // every task call of the phase, warm-up included
	completed uint64 // calls that returned true
	failed    uint64 // false returns + pool faults + verification violations
	problems  []string
}

func (o *loopOutcome) fail(n uint64, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is what the sampler reads at a window boundary.
type snapshot struct {
	at    time.Time
	ops   []uint64 // per stack
	nsamp [][]uint64
}

func takeSnapshot(ins []*instrumented) snapshot {
	s := snapshot{at: time.Now(), ops: make([]uint64, len(ins)), nsamp: make([][]uint64, len(ins))}
	for i, in := range ins {
		s.nsamp[i] = make([]uint64, len(in.workers))
		for j, w := range in.workers {
			s.ops[i] += w.ops.Load()
			s.nsamp[i][j] = w.nsamp.Load()
		}
	}
	return s
}

// runClosedLoop drives the stacks through colocate.Group.Run — the
// product's own entry point — with every pool worker calling its workload
// back-to-back (a closed loop with one client per worker), and measures
// the windows after the warm-up from outside.
func runClosedLoop(stacks []stackDef, durable bool, cfg loopConfig) (*loopOutcome, error) {
	out := &loopOutcome{stacks: make([]stackOutcome, len(stacks))}
	total := cfg.warm + time.Duration(cfg.windows)*window
	sampleCap := int(total.Seconds()*maxOpsPerWorker/sampleStride) + 1024

	procs := make([]colocate.Proc, len(stacks))
	ins := make([]*instrumented, len(stacks))
	rts := make([]*stm.Runtime, len(stacks))
	logs := make([]*wal.Log, len(stacks))
	for i, sd := range stacks {
		w, rt, ctrl, err := sd.build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", sd.name, err)
		}
		seed := cfg.seed + int64(i)*1_000_003
		in, wrapped, err := instrument(w, sd.pool, seed, sampleCap, cfg.traced)
		if err != nil {
			return nil, err
		}
		defer in.release()
		ins[i], rts[i] = in, rt
		procs[i] = colocate.Proc{Name: sd.name, Workload: wrapped, Controller: ctrl, PoolSize: sd.pool, Seed: seed}
		if !durable {
			continue
		}
		dir, err := os.MkdirTemp(cfg.walDir, "wal-"+sd.name+"-")
		if err != nil {
			return nil, err
		}
		out.stacks[i].walDir = dir
		opts := wal.Options{Dir: dir, Policy: wal.FsyncOS}
		if !cfg.traced {
			procs[i].Durable, procs[i].Runtime = &opts, rt
			continue
		}
		// Traced: same choreography, but the runtime's sink is the timing
		// decorator around the log, and the benchmark closes the log.
		i := i
		sink := &timedSink{}
		out.stacks[i].sink = sink
		in.afterSetup = func() error {
			l, err := colocate.AttachDurability(w, rt, opts)
			if err != nil {
				return err
			}
			logs[i], sink.log = l, l
			rt.AttachCommitSink(sink)
			return nil
		}
	}
	defer func() {
		for _, l := range logs {
			if l != nil {
				l.Close()
			}
		}
	}()

	group, err := colocate.NewGroup(procs, core.DefaultPeriod)
	if err != nil {
		return nil, err
	}

	// The sampler sleeps between window boundaries; it never spins beside
	// the workers. Its clock starts at the first completed call, because
	// Group.Run populates the workloads before it starts the pools.
	var sm struct {
		snaps          []snapshot
		cpu, steal     time.Duration // over the measured windows
		mem0, mem1     runtime.MemStats
		stats0, stats1 []stm.Stats
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sleep := func(d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return true
			case <-stop:
				return false
			}
		}
		for takeSnapshot(ins).opsTotal() == 0 {
			if !sleep(time.Millisecond) {
				return
			}
		}
		if !sleep(cfg.warm) {
			return
		}
		runtime.ReadMemStats(&sm.mem0)
		if cfg.traced {
			for _, rt := range rts {
				sm.stats0 = append(sm.stats0, rt.Stats())
			}
		}
		cpu0, steal0 := cpuTime(), stolen()
		sm.snaps = append(sm.snaps, takeSnapshot(ins))
		begin := sm.snaps[0].at
		for k := 1; k <= cfg.windows; k++ {
			if !sleep(time.Until(begin.Add(time.Duration(k) * window))) {
				return
			}
			sm.snaps = append(sm.snaps, takeSnapshot(ins))
		}
		sm.cpu, sm.steal = cpuTime()-cpu0, stolen()-steal0
		if cfg.traced {
			for _, rt := range rts {
				sm.stats1 = append(sm.stats1, rt.Stats())
			}
		}
		runtime.ReadMemStats(&sm.mem1)
	}()

	// The run outlasts the last window by a margin so a late sampler
	// wake-up still closes its window against running workers.
	results, runErr := group.Run(total + window/4 + 200*time.Millisecond)
	close(stop)
	<-done

	for i := range stacks {
		so := &out.stacks[i]
		so.name = stacks[i].name
		for _, w := range ins[i].workers {
			out.attempted += w.ops.Load()
			so.taskFails += w.fails.Load()
			out.capped = out.capped || w.capped.Load()
		}
		if so.taskFails > 0 {
			out.fail(so.taskFails, "%s: %d task calls returned false", so.name, so.taskFails)
		}
		if i < len(results) {
			so.faults = results[i].Faults
			so.wal = results[i].Wal
			so.meanLevel = results[i].MeanLevel
			if lv := results[i].Levels; lv != nil && lv.Len() > 0 {
				so.decisions = lv.Len()
				for k := 1; k < lv.Len(); k++ {
					if lv.V[k] != lv.V[k-1] {
						so.levelMoves++
					}
				}
				// Level samples are stamped in seconds since the tuner
				// started, which is when traffic started.
				if m := lv.MeanAfter(cfg.warm.Seconds()); m > 0 {
					so.meanLevel = m
				}
			}
		}
		if so.meanLevel == 0 {
			so.meanLevel = float64(stacks[i].pool)
		}
		if so.faults > 0 {
			out.fail(so.faults, "%s: %d recovered task panics", so.name, so.faults)
		}
		if l := logs[i]; l != nil {
			so.wal = closeLog(l)
			logs[i] = nil
		}
	}
	out.completed = out.attempted
	for _, so := range out.stacks {
		out.completed -= so.taskFails
	}
	if runErr != nil {
		out.fail(1, "colocate.Group.Run: %v", runErr)
	}
	for i, in := range ins {
		if !in.verified && runErr == nil {
			in.Verify()
		}
		if in.verified && in.verifyErr != nil {
			out.stacks[i].verifyErr = in.verifyErr
			out.fail(1, "%s: verification: %v", stacks[i].name, in.verifyErr)
		}
	}
	for i := range out.stacks {
		if so := &out.stacks[i]; so.wal != nil {
			if so.wal.Lost {
				out.fail(1, "%s: write-ahead log lost durability: %v", so.name, so.wal.LostErr)
			}
			if so.wal.DurableCSN != so.wal.LastCSN {
				out.fail(so.wal.LastCSN-so.wal.DurableCSN, "%s: %d commits not durable at close", so.name, so.wal.LastCSN-so.wal.DurableCSN)
			}
		}
	}

	if len(sm.snaps) != cfg.windows+1 {
		return out, fmt.Errorf("closed loop ended after %d of %d windows (run error: %v)", len(sm.snaps)-1, cfg.windows, runErr)
	}
	first, last := sm.snaps[0], sm.snaps[cfg.windows]
	out.stolen = sm.steal
	measured := last.at.Sub(first.at).Seconds()
	var ops uint64
	perStack := make([]float64, len(stacks))
	for i := range stacks {
		so := &out.stacks[i]
		so.ops = last.ops[i] - first.ops[i]
		so.opsPerSec = float64(so.ops) / measured
		perStack[i] = so.opsPerSec
		out.meanTotalLevel += so.meanLevel
		ops += so.ops
		if cfg.traced {
			so.stats = statsDelta(sm.stats0[i], sm.stats1[i])
		}
	}
	// Per-window series: completed calls per second and the percentiles of
	// the calls sampled inside the window.
	var all []int32
	for k := 1; k <= cfg.windows; k++ {
		a, b := sm.snaps[k-1], sm.snaps[k]
		dt := b.at.Sub(a.at)
		if dt < window/2 {
			continue // the sampler woke late and is catching up: too short to rate
		}
		n := b.opsTotal() - a.opsTotal()
		out.windowOps = append(out.windowOps, float64(n)/dt.Seconds())
		var win []int32
		for i, in := range ins {
			for j, w := range in.workers {
				win = append(win, w.samples[a.nsamp[i][j]:b.nsamp[i][j]]...)
			}
		}
		out.samples += len(win)
		if len(win) == 0 {
			continue // only possible once a sample buffer has filled
		}
		sort.Slice(win, func(x, y int) bool { return win[x] < win[y] })
		out.windowP50 = append(out.windowP50, nsQuantile(win, 0.50)/1e3)
		out.windowP99 = append(out.windowP99, nsQuantile(win, 0.99)/1e3)
		all = append(all, win...)
	}
	if ops == 0 {
		return out, fmt.Errorf("closed loop completed no calls in the measured windows")
	}
	out.throughput = quietRate(out.windowOps)
	out.p50us = quietTime(out.windowP50)
	out.p99us = quietTime(out.windowP99)
	// CPU per call at quiet speed: the cores the process kept busy over the
	// whole interval, per unit of quiet throughput. Busy cores repeat within
	// 1.5% run to run (6% in the worst session recorded) whatever the host
	// does to the speed — a slowed worker is still busy, and the collector's
	// and the logger's shares shrink with the worker's rate — so the quotient
	// is as steady as the throughput; CPU over calls of the whole interval
	// inherits the interval's 10-45%, and per-window CPU deltas are too
	// coarse at 20 ms to take a quantile of.
	out.coresBusy = sm.cpu.Seconds() / measured
	out.cpuUsPerOp = out.coresBusy / out.throughput * 1e6
	sort.Slice(all, func(x, y int) bool { return all[x] < all[y] })
	out.intervalThroughput = float64(ops) / measured
	out.intervalP50us = nsQuantile(all, 0.50) / 1e3
	out.intervalCPUUsPerOp = sm.cpu.Seconds() * 1e6 / float64(ops)
	out.allocsPerOp = float64(sm.mem1.Mallocs-sm.mem0.Mallocs) / float64(ops)
	out.allocBytesPerOp = float64(sm.mem1.TotalAlloc-sm.mem0.TotalAlloc) / float64(ops)
	out.gcPerSec = float64(sm.mem1.NumGC-sm.mem0.NumGC) / measured
	out.jain = metrics.Jain(perStack)
	out.opsPerLevel = out.throughput / out.meanTotalLevel
	if out.capped {
		out.problems = append(out.problems, "a sample buffer filled: percentiles cover only the run's head")
	}
	return out, nil
}

func (s snapshot) opsTotal() uint64 {
	var n uint64
	for _, v := range s.ops {
		n += v
	}
	return n
}

func statsDelta(a, b stm.Stats) stm.Stats {
	return stm.Stats{
		Commits:         b.Commits - a.Commits,
		ReadOnlyCommits: b.ReadOnlyCommits - a.ReadOnlyCommits,
		Aborts:          b.Aborts - a.Aborts,
		Extensions:      b.Extensions - a.Extensions,
		ReadSetSum:      b.ReadSetSum - a.ReadSetSum,
		WriteSetSum:     b.WriteSetSum - a.WriteSetSum,
	}
}

// closeLog closes a benchmark-owned log the way Group.Run closes its own.
func closeLog(l *wal.Log) *colocate.WalResult {
	lost, lostErr := l.Lost()
	wr := &colocate.WalResult{Recovered: l.Recovered(), LastCSN: l.LastCSN(), Lost: lost, LostErr: lostErr}
	if err := l.Close(); err != nil && wr.LostErr == nil {
		wr.Lost, wr.LostErr = true, err
	}
	wr.DurableCSN = l.DurableCSN()
	return wr
}

// timeSetups measures fresh set-ups of every stack — new runtime, new
// workload, Setup, and log open + attach where durable — repeated until
// maxReps or the time budget (at least minReps), and returns the times in
// seconds. A GC before each repetition keeps the previous repetition's
// garbage out of this one's time.
func timeSetups(def *workloadDef, seed int64, walDir string, budget time.Duration, minReps, maxReps int) ([]float64, error) {
	var times []float64
	var spent time.Duration
	for len(times) < maxReps && (len(times) < minReps || spent < budget) {
		runtime.GC()
		d, err := setupOnce(def, seed, walDir)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		spent += d
	}
	return times, nil
}

func setupOnce(def *workloadDef, seed int64, walDir string) (time.Duration, error) {
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	dirs := make([]string, len(def.stacks))
	if def.durable {
		for i := range def.stacks {
			dir, err := os.MkdirTemp(walDir, "setup-")
			if err != nil {
				return 0, err
			}
			dirs[i] = dir
			cleanup = append(cleanup, func() { os.RemoveAll(dir) })
		}
	}
	t0 := time.Now()
	for i, sd := range def.stacks {
		w, rt, _, err := sd.build()
		if err != nil {
			return 0, err
		}
		if err := w.Setup(rand.New(rand.NewSource(seed + int64(i)*1_000_003))); err != nil {
			return 0, fmt.Errorf("setup %s: %w", sd.name, err)
		}
		if def.durable {
			l, err := colocate.AttachDurability(w, rt, wal.Options{Dir: dirs[i], Policy: wal.FsyncOS})
			if err != nil {
				return 0, err
			}
			cleanup = append(cleanup, func() { l.Close() })
		}
	}
	return time.Since(t0), nil
}

// recoverCheck restarts a durable stack from its closed log: a fresh
// runtime and workload, the log reopened and replayed into it. Every
// acknowledged commit must be in the recovered prefix and the recovered
// state must pass the workload's own verification. It returns the restart
// time (open + replay + rebase + verify, population excluded).
func recoverCheck(sd stackDef, seed int64, dir string, wr *colocate.WalResult) (time.Duration, uint64, error) {
	w, rt, _, err := sd.build()
	if err != nil {
		return 0, 0, err
	}
	if err := w.Setup(rand.New(rand.NewSource(seed))); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	l, err := colocate.AttachDurability(w, rt, wal.Options{Dir: dir, Policy: wal.FsyncOS})
	if err != nil {
		return 0, 0, fmt.Errorf("restart from %s: %w", filepath.Base(dir), err)
	}
	took := time.Since(t0)
	defer l.Close()
	rec := l.Recovered()
	if rec.LastCSN != wr.LastCSN || wr.DurableCSN != wr.LastCSN {
		return took, rec.LastCSN, fmt.Errorf("recovered prefix %d, durable %d, last issued %d: acknowledged commits lost",
			rec.LastCSN, wr.DurableCSN, wr.LastCSN)
	}
	if rec.Torn {
		return took, rec.LastCSN, fmt.Errorf("cleanly closed log recovered torn: %s", rec.Note)
	}
	if err := w.Verify(); err != nil {
		return took, rec.LastCSN, fmt.Errorf("recovered state: %w", err)
	}
	return took, rec.LastCSN, nil
}

var _ stamp.Workload = (*instrumented)(nil)
