package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	return quantileSorted(sorted(xs), 0.5)
}

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method) — the estimator the acceptance protocol uses for the
// run-to-run spread, so -aa judges the benchmark by the same rule.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// nsQuantile returns the q-quantile (nearest rank) of ascending nanosecond
// samples, in nanoseconds.
func nsQuantile(s []int32, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// Interference from the host — a neighbour on the sibling hyperthread, a
// vCPU descheduled, a shared cache thrashed — only ever makes a window
// slower, never faster. On a small shared VM it comes in bursts of
// milliseconds to minutes and moves whole-interval numbers by 10-45% from
// one run to the next. So every gated within-run series is summarised by
// its quietest window: the highest rate and the lowest time over 20 ms
// windows (750 in a 15 s run), the fastest of the timed set-ups. Lower
// quantiles were measured too (README, Quiet-window statistics): the
// further from the extreme, the more of the host's bad minutes they let in,
// and in a good hour the extreme repeats as well as the 98th percentile.
//
// What this filters besides the host: program work with a period longer
// than a window. A garbage-collection cycle comes every ~100 ms on the
// write workloads, so the quietest window holds none; its cost stays
// visible in cpu_us_per_op (whole-run CPU) and in the whole-interval
// figures printed beside every gated one. The tuner tick (10 ms) and WAL
// batches and snapshots (every ~16 ms at 1M commits/s) are inside every
// window.

// window is the sampler's period. It defines every gated number, so it is a
// constant: results taken at another value would not be comparable.
const window = 20 * time.Millisecond

// warmUp is the closed-loop time before the first measured window.
func (o options) warmUp() time.Duration {
	if o.short {
		return 300 * time.Millisecond
	}
	return 2 * time.Second
}

// quietTime and quietRate pick a series' quietest element (0 when empty).
func quietTime(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func quietRate(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}
