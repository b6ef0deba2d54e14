package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"rubic/internal/load"
	"rubic/internal/pool"
	"rubic/internal/stamp"
	"rubic/internal/wal"
)

// sampleStride is the untraced sampling rate: one task call in 16 is timed,
// so the two clock reads cost the average call ~3 ns.
const sampleStride = 16

// spanRingSize bounds the traced closed loop's per-worker span ring: it
// exists to price span recording (trace.overhead_pct), not to keep spans.
const spanRingSize = 1 << 14

// worker is one pool worker's private measurement state. Only its worker
// writes it; the sampler goroutine reads the atomics. Each worker is
// allocated separately and padded so neighbours never share a cache line.
type worker struct {
	calls   uint64
	zipf    *load.Zipf
	samples []int32 // sampled call durations, ns; fixed capacity
	ring    []span  // traced runs only

	ops    atomic.Uint64 // task calls returned (attempted)
	fails  atomic.Uint64 // task calls that returned false
	nsamp  atomic.Uint64 // samples[:nsamp] are valid
	capped atomic.Bool   // the sample buffer filled up

	_ [64]byte
}

// instrumented is the benchmark-owned stamp.Workload around a product
// workload: it draws each request's key from a per-worker Zipf (theta
// 0.99) for keyed workloads, counts calls and failures, and samples call
// durations. Setup, Verify and Name forward to the product workload.
type instrumented struct {
	inner   stamp.Workload
	keyed   load.Keyed
	workers []*worker
	// traced times every call and records it as a span; one call in
	// sampleStride still feeds the percentile samples.
	traced bool
	// afterSetup, when non-nil, runs at the end of Setup — the traced run's
	// hook for wiring durability through its own timing sink.
	afterSetup func() error

	verified  bool
	verifyErr error
}

// durableInstrumented additionally forwards wal.DurableState, so
// colocate.AttachDurability accepts the wrapper exactly when it would
// accept the product workload.
type durableInstrumented struct {
	*instrumented
	ds wal.DurableState
}

func (d durableInstrumented) RegisterDurable(reg *wal.Registry) error {
	return d.ds.RegisterDurable(reg)
}
func (d durableInstrumented) Rebase() error { return d.ds.Rebase() }

// keySpace is what a keyed product workload tells its key generator.
type keySpace interface{ Keys() int }

// offHeap returns n int32s of anonymous memory outside the Go heap. The
// sample buffers are tens of megabytes; on the heap they would count as
// live data, raise the collector's target tenfold and so hide most of the
// garbage-collection work the product's own small heap causes.
func offHeap(n int) ([]int32, error) {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample buffer: %w", err)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
}

// release returns the workers' sample buffers to the operating system.
func (in *instrumented) release() {
	for _, w := range in.workers {
		if len(w.samples) > 0 {
			syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&w.samples[0])), len(w.samples)*4))
			w.samples = nil
		}
	}
}

// instrument wraps w for a pool of the given size. seed derives the
// per-worker key streams; sampleCap bounds each worker's sample buffer,
// which the caller must release.
func instrument(w stamp.Workload, workers int, seed int64, sampleCap int, traced bool) (*instrumented, stamp.Workload, error) {
	in := &instrumented{inner: w, traced: traced}
	in.keyed, _ = w.(load.Keyed)
	for i := 0; i < workers; i++ {
		samples, err := offHeap(sampleCap)
		if err != nil {
			in.release()
			return nil, nil, err
		}
		wk := &worker{samples: samples}
		in.workers = append(in.workers, wk)
		if traced {
			wk.ring = make([]span, spanRingSize)
		}
		if k, ok := w.(keySpace); ok && in.keyed != nil {
			z, err := load.NewZipf(uint64(k.Keys()), load.DefaultTheta, seed+int64(i)*7919)
			if err != nil {
				in.release()
				return nil, nil, err
			}
			wk.zipf = z
		}
	}
	if ds, ok := w.(wal.DurableState); ok {
		return in, durableInstrumented{in, ds}, nil
	}
	return in, in, nil
}

func (in *instrumented) Name() string { return in.inner.Name() }

func (in *instrumented) Setup(rng *rand.Rand) error {
	if err := in.inner.Setup(rng); err != nil {
		return err
	}
	if in.afterSetup != nil {
		return in.afterSetup()
	}
	return nil
}

// Verify runs the product's verification once and remembers the outcome.
// It reports success to the driver so one stack's violation does not stop
// colocate.Group.Run from verifying the others: violations are counted
// into "failed", not fatal.
func (in *instrumented) Verify() error {
	in.verifyErr = in.inner.Verify()
	in.verified = true
	return nil
}

func (in *instrumented) Task() pool.Task {
	task := in.inner.Task()
	return func(id int, rng *rand.Rand) bool {
		w := in.workers[id]
		n := w.calls
		w.calls++
		var key uint64
		if w.zipf != nil {
			key = w.zipf.Next()
		}
		sample := n%sampleStride == 0
		timed := sample || in.traced
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		var ok bool
		if w.zipf != nil {
			ok = in.keyed.ServeKey(id, key, rng)
		} else {
			ok = task(id, rng)
		}
		if timed {
			d := time.Since(t0)
			if sample {
				if i := w.nsamp.Load(); int(i) < len(w.samples) {
					w.samples[i] = clampNs(d)
					w.nsamp.Store(i + 1)
				} else {
					w.capped.Store(true)
				}
			}
			if in.traced {
				start := sinceOrigin(t0)
				w.ring[n%spanRingSize] = span{req: n, name: spanRequest, start: start, end: start + int64(d)}
			}
		}
		if !ok {
			w.fails.Add(1)
		}
		w.ops.Add(1)
		return ok
	}
}

// clampNs stores a duration as int32 nanoseconds (saturating at ~2.1 s).
func clampNs(d time.Duration) int32 {
	if d > 1<<31-1 {
		return 1<<31 - 1
	}
	if d < 0 {
		return 0
	}
	return int32(d)
}
