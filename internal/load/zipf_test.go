package load

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestZipfGoldenSequences pins what a seed means: the FNV-64a hash of the
// first 3M keys of each (n, theta, seed), recorded on the per-draw formula
// this generator started as. Every BENCHMARK.json workload, serve test and
// smoke run draws its keys here, so a changed hash is a changed workload.
func TestZipfGoldenSequences(t *testing.T) {
	const draws = 3_000_000
	golden := []struct {
		n     uint64
		theta float64
		seed  int64
		want  string
	}{
		{10000, 0.99, 1, "632a6de194229929"},
		{10000, 0.99, 101, "5c93ebc7be24d12b"},
		{500, 0.99, 17, "d6154a3ffbbf5cff"},
		{1, 0.5, 3, "02afb588546f5b25"},
		{2, 0.5, 3, "c1da437cd408ea05"},
		{3, 0.9, 3, "1fefcf547a72a667"},
		{100000, 0.8, 5, "1d79dc4d39d7dfa2"},
		{1000000, 0.99, 9, "d68502e5c00f941d"},
		{16, 0.1, 2, "46046bec4affb56a"},
	}
	if testing.Short() {
		golden = golden[:3]
	}
	for _, g := range golden {
		z, err := NewZipf(g.n, g.theta, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var le [8]byte
		for i := 0; i < draws; i++ {
			binary.LittleEndian.PutUint64(le[:], z.Next())
			h.Write(le[:])
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != g.want {
			t.Errorf("NewZipf(%d, %v, %d): first %d keys hash to %s, want %s", g.n, g.theta, g.seed, draws, got, g.want)
		}
	}
}

// formulaZipf is the generator as it was before the tables — Gray et al.'s
// inversion evaluated per draw, two math.Pow calls and all — kept here as
// the oracle the tables are checked against.
type formulaZipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
}

func newFormulaZipf(n uint64, theta float64) formulaZipf {
	zeta := func(n uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	f := formulaZipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	f.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/f.zetan)
	return f
}

func (f formulaZipf) rankByFormula(u float64) uint64 {
	uz := u * f.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, f.theta) {
		return 1
	}
	k := uint64(float64(f.n) * math.Pow(f.eta*u-f.eta+1, f.alpha))
	if k >= f.n {
		k = f.n - 1
	}
	return k
}

// cutTol is how far cut[k] may sit from the u where the formula steps to
// rank k, the two rounding differently. For the head threshold 1/zetan it
// is 4 ulp of the cutpoint. For the tail it is measured where the rounding
// happens, in the formula's own base x = eta*u-eta+1: 32 steps of 2^-53
// there (the worst seen over a sweep of key spaces and skews is 17, at
// theta near 0.5 where math.Pow(i, theta) itself is several ulp off), each
// of which is 2^-53/eta in u. Closer than that the formula is deciding on
// rounding noise; at the default skew and 10k keys the gaps measured between
// the two add up to about one draw in 10^11.
func cutTol(z *Zipf, f formulaZipf, k uint64) float64 {
	tol := 4 * (math.Nextafter(z.cut[k], 2) - z.cut[k])
	if k > 1 {
		tol += 32 * 0x1p-53 / f.eta
	}
	return tol
}

// checkRank holds the table to the formula at one u: the same rank, or
// ranks apart only by cutpoints within cutTol of u.
func checkRank(t *testing.T, z *Zipf, f formulaZipf, u float64) {
	t.Helper()
	got, want := z.rank(u), f.rankByFormula(u)
	if got >= f.n {
		t.Fatalf("n=%d theta=%v: rank(%v) = %d, outside the key space", f.n, f.theta, u, got)
	}
	for k := min(got, want) + 1; k <= max(got, want); k++ {
		if d, tol := math.Abs(u-z.cut[k]), cutTol(z, f, k); !(d <= tol) {
			t.Fatalf("n=%d theta=%v: rank(%v) = %d, formula says %d, and cut[%d] = %v is %g away (tolerance %g)",
				f.n, f.theta, u, got, want, k, z.cut[k], d, tol)
		}
	}
}

// checkCut probes just outside cut[k]'s tolerance on both sides, where a
// misplaced cutpoint shows: a u drawn at random never lands that close.
func checkCut(t *testing.T, z *Zipf, f formulaZipf, k uint64) {
	t.Helper()
	d := 1.5 * cutTol(z, f, k)
	for _, u := range []float64{z.cut[k] - d, z.cut[k] + d} {
		if u >= 0 && u < 1 {
			checkRank(t, z, f, u)
		}
	}
}

// checkTables asserts what rank relies on: cutpoints never decrease, the
// last one is out of every u's reach, and a guide entry never overshoots.
func checkTables(t *testing.T, z *Zipf) {
	t.Helper()
	n := len(z.guide)
	if len(z.cut) != n+1 || z.cut[n] <= 1 {
		t.Fatalf("n=%d: %d cutpoints ending in %v, want %d ending above 1", n, len(z.cut), z.cut[n], n+1)
	}
	for k := 1; k <= n; k++ {
		if !(z.cut[k] >= z.cut[k-1]) {
			t.Fatalf("n=%d: cut[%d] = %v after cut[%d] = %v", n, k, z.cut[k], k-1, z.cut[k-1])
		}
	}
	for j, g := range z.guide {
		if r := z.rank(float64(j) / float64(n)); uint64(g) > r {
			t.Fatalf("n=%d: guide[%d] = %d overshoots rank(%d/n) = %d", n, j, g, j, r)
		}
	}
}

// FuzzZipfRank is the differential oracle: any key space up to 16k keys,
// any theta in (0,1), any u the stream can produce.
func FuzzZipfRank(f *testing.F) {
	for _, n := range []uint32{1, 2, 3, 16, 500, 10000} {
		for _, theta := range []float64{1e-9, 0.1, 0.5, DefaultTheta, 1 - 1e-9} {
			for _, u := range []uint64{0, 1 << 62, 0xdeadbeefcafef00d, math.MaxUint64} {
				f.Add(n, math.Float64bits(theta), u)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n uint32, thetaBits, uBits uint64) {
		keys, theta := uint64(n%(1<<14))+1, math.Float64frombits(thetaBits)
		z, err := NewZipf(keys, theta, 1)
		if err != nil {
			t.Skip() // theta outside (0,1)
		}
		checkTables(t, z)
		oracle := newFormulaZipf(keys, theta)
		u := float64(uBits>>11) / (1 << 53) // rng.Stream.Float64's mapping
		checkRank(t, z, oracle, u)
		for k := z.rank(u) + 1; k < keys; k += keys/8 + 1 {
			checkCut(t, z, oracle, k)
		}
	})
}

// TestZipfEdges walks the corners of the table construction: key spaces so
// small that the head cases meet the sentinel, the two ends of u at sizes
// on both sides of a power of two, and theta at both ends of (0,1).
func TestZipfEdges(t *testing.T) {
	sizes := []uint64{1, 2, 3, 10_000, 1 << 20, 1<<20 - 3}
	thetas := []float64{1e-9, 0.5, 1 - 1e-9}
	if testing.Short() {
		sizes = sizes[:4]
	}
	const lastU = 1 - 0x1p-53
	for _, n := range sizes {
		for _, theta := range thetas {
			z, err := NewZipf(n, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			if z.Keys() != n {
				t.Fatalf("Keys() = %d, want %d", z.Keys(), n)
			}
			checkTables(t, z)
			oracle := newFormulaZipf(n, theta)
			for _, u := range []float64{0, 0x1p-53, 0.5, lastU} {
				checkRank(t, z, oracle, u)
			}
			for k := uint64(1); k < n; k += n/64 + 1 {
				checkCut(t, z, oracle, k)
			}
			if r := z.rank(lastU); n <= 3 && r != n-1 {
				t.Errorf("n=%d theta=%v: rank(1-2^-53) = %d, want the coldest key %d", n, theta, r, n-1)
			}
		}
	}
}

var benchSink uint64

// BenchmarkZipfNext prices one key draw at the default skew and key space.
func BenchmarkZipfNext(b *testing.B) {
	z, err := NewZipf(10_000, DefaultTheta, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += z.Next()
	}
	benchSink = sum
}

// BenchmarkNewZipf prices construction, where the per-draw work went: the
// harmonic sum plus the two tables (12 B/key in B/op).
func BenchmarkNewZipf(b *testing.B) {
	for _, c := range []struct {
		name string
		keys uint64
	}{{"keys=10k", 10_000}, {"keys=1M", 1_000_000}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				z, err := NewZipf(c.keys, DefaultTheta, 1)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += z.Keys()
			}
		})
	}
}
