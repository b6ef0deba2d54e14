package load

import (
	"errors"
	"math"
	"testing"
	"time"

	"rubic/internal/rng"
)

// schedule materializes the first n gaps of a generator.
func schedule(g Arrival, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// TestArrivalDeterminism is the chaos-layer convention applied to load:
// same (process, qps, seed) ⇒ same arrival schedule; a different seed
// diverges.
func TestArrivalDeterminism(t *testing.T) {
	const qps, n = 200.0, 2000
	for _, name := range ArrivalNames() {
		t.Run(name, func(t *testing.T) {
			a, err := NewArrival(name, qps, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := NewArrival(name, qps, 42)
			sa, sb := schedule(a, n), schedule(b, n)
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("%s@42 schedules diverge at arrival %d: %v vs %v", name, i, sa[i], sb[i])
				}
			}
			if name == "constant" {
				return // seedless by design
			}
			c, _ := NewArrival(name, qps, 43)
			sc := schedule(c, n)
			same := 0
			for i := range sa {
				if sa[i] == sc[i] {
					same++
				}
			}
			if same == n {
				t.Fatalf("%s schedules identical across different seeds", name)
			}
		})
	}
}

// TestArrivalMeanRate: every generator's long-run rate must converge to the
// requested QPS (the diurnal and burst shapes oscillate around it / above
// it in a known way).
func TestArrivalMeanRate(t *testing.T) {
	const qps = 100.0
	cases := []struct {
		name     string
		min, max float64 // acceptable long-run rate band
	}{
		{"constant", 99, 101},
		{"poisson", 95, 105},
		{"diurnal", 85, 115},   // sinusoid mean ≈ qps over whole cycles
		{"burst", 95, qps * 2}, // base qps plus spike mass
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewArrival(tc.name, qps, 7)
			if err != nil {
				t.Fatal(err)
			}
			// Walk 60 virtual seconds of schedule (whole diurnal/burst cycles).
			var virtual time.Duration
			n := 0
			for virtual < 60*time.Second {
				virtual += g.Next()
				n++
				if n > 10_000_000 {
					t.Fatal("schedule never advances")
				}
			}
			rate := float64(n) / virtual.Seconds()
			if rate < tc.min || rate > tc.max {
				t.Fatalf("%s long-run rate %.1f outside [%.1f, %.1f]", tc.name, rate, tc.min, tc.max)
			}
		})
	}
}

// TestBurstSpikes: the burst generator's windows must actually spike — the
// arrival count inside spike windows divided by window time should be near
// factor times the base rate.
func TestBurstSpikes(t *testing.T) {
	g, err := NewBurst(100, 8, 5*time.Second, 500*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	var virtual float64 // seconds
	var inSpike, outSpike int
	var spikeTime, quietTime float64
	for virtual < 100 {
		gap := g.Next().Seconds()
		virtual += gap
		if math.Mod(virtual, 5) < 0.5 {
			inSpike++
		} else {
			outSpike++
		}
	}
	spikeTime = 100 * (0.5 / 5)
	quietTime = 100 - spikeTime
	spikeRate := float64(inSpike) / spikeTime
	quietRate := float64(outSpike) / quietTime
	if spikeRate < 4*quietRate {
		t.Fatalf("spike rate %.0f not clearly above quiet rate %.0f (want ≈8x)", spikeRate, quietRate)
	}
}

// TestZipfHotKeyMix pins the 80/20 default: at DefaultTheta over 10k keys,
// the hottest 20% of ranks must absorb at least 75% of draws (and the
// distribution must be deterministic per seed). The rank-frequency shape is
// pinned too: the two hottest ranks against the analytic 1/(k+1)^theta/zetan,
// the third and the top 1% against the per-draw formula on the same stream.
func TestZipfHotKeyMix(t *testing.T) {
	const n, draws = 10_000, 2_000_000
	z, err := NewZipf(n, DefaultTheta, 11)
	if err != nil {
		t.Fatal(err)
	}
	z2, _ := NewZipf(n, DefaultTheta, 11)
	formula, us := newFormulaZipf(n, DefaultTheta), rng.NewStream(11, tagZipf)
	// Shares of rank 0, rank 1, rank 2 and the hottest 1%.
	share := func(c *[4]int, k uint64) {
		if k < 3 {
			c[k]++
		}
		if k < n/100 {
			c[3]++
		}
	}
	var got, old [4]int
	hot := 0
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k != z2.Next() {
			t.Fatalf("zipf draws diverge at %d for the same seed", i)
		}
		if k >= n {
			t.Fatalf("key %d outside the key space", k)
		}
		if k < n/5 {
			hot++
		}
		share(&got, k)
		share(&old, formula.rankByFormula(us.Float64()))
	}
	frac := float64(hot) / draws
	if frac < 0.75 {
		t.Fatalf("hottest 20%% of keys got %.1f%% of draws, want >= 75%% (the 80/20 mix)", 100*frac)
	}
	if frac > 0.95 {
		t.Fatalf("skew implausibly extreme: %.1f%%", 100*frac)
	}
	want := [4]float64{
		draws / formula.zetan,
		draws * math.Pow(0.5, DefaultTheta) / formula.zetan,
		float64(old[2]),
		float64(old[3]),
	}
	for i, name := range []string{"rank 0", "rank 1", "rank 2", "the hottest 1%"} {
		if rel := math.Abs(float64(got[i])-want[i]) / want[i]; rel > 0.01 {
			t.Errorf("%s drew %d of %d, want %.0f within 1%% (off by %.2f%%)", name, got[i], draws, want[i], 100*rel)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.9, 1); err == nil {
		t.Fatal("empty key space accepted")
	}
	for _, theta := range []float64{0, 1, -0.5, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewZipf(10, theta, 1); err == nil {
			t.Fatalf("theta %v accepted", theta)
		}
	}
	// Ranks are 32-bit in the guide table: one key more is refused by name,
	// before anything is allocated, not truncated.
	if _, err := NewZipf(math.MaxUint32+1, 0.9, 1); !errors.Is(err, errZipfKeySpace) {
		t.Fatalf("2^32 keys: got %v, want errZipfKeySpace", err)
	}
}

// TestQueueShedAndDrain: a full queue sheds instead of blocking, Close
// leaves the backlog poppable, and Pop reports exhaustion.
func TestQueueShedAndDrain(t *testing.T) {
	q, err := NewQueue(2)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if !q.Offer(Request{Seq: 0, Arrival: now}) || !q.Offer(Request{Seq: 1, Arrival: now}) {
		t.Fatal("offers below capacity rejected")
	}
	if q.Offer(Request{Seq: 2, Arrival: now}) {
		t.Fatal("offer above capacity admitted")
	}
	if q.Shed() != 1 || q.Len() != 2 {
		t.Fatalf("shed %d len %d, want 1 and 2", q.Shed(), q.Len())
	}
	q.Close()
	if q.Offer(Request{Seq: 3}) {
		t.Fatal("offer after close admitted")
	}
	for want := uint64(0); want < 2; want++ {
		r, ok := q.Pop()
		if !ok || r.Seq != want {
			t.Fatalf("pop %d: got %+v ok=%v", want, r, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on a closed drained queue reported a request")
	}
	q.Close() // idempotent
}

func TestArrivalValidation(t *testing.T) {
	if _, err := NewArrival("warp", 10, 1); err == nil {
		t.Fatal("unknown arrival accepted")
	}
	for _, qps := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if _, err := NewConstant(qps); err == nil {
			t.Fatalf("constant qps %v accepted", qps)
		}
		if _, err := NewPoisson(qps, 1); err == nil {
			t.Fatalf("poisson qps %v accepted", qps)
		}
	}
	if _, err := NewDiurnal(10, 5, time.Second, 1); err == nil {
		t.Fatal("diurnal peak < trough accepted")
	}
	if _, err := NewBurst(10, 2, time.Second, 2*time.Second, 1); err == nil {
		t.Fatal("burst width >= every accepted")
	}
}
