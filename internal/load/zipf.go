package load

import (
	"errors"
	"fmt"
	"math"

	"rubic/internal/rng"
)

// Zipf draws keys from a Zipfian distribution over [0, n): key rank i is
// drawn with probability proportional to 1/(i+1)^theta. It is the
// YCSB-style hot-key mix (Gray et al.'s rejection-free inversion): at the
// default skew and a 10k key space, roughly 80% of draws hit the hottest
// 20% of keys — the classic 80/20 service traffic shape (StunDB's Zipfian
// benchmarks use the same generator family).
//
// Gray's rank is a non-decreasing step function of one uniform u, so it is
// tabulated at construction and a draw is a table lookup: 12 bytes per key
// (120 KB at the default 10k) buy a Next that raises nothing to a power.
//
// Draws are allocation-free and deterministic for a given (n, theta, seed).
// Not safe for concurrent use; the Server's generator goroutine owns it.
type Zipf struct {
	// cut[k] is the smallest u whose rank is >= k: 1/zetan for rank 1, the
	// inverse of Gray's tail formula from rank 2 on, and above every u at
	// cut[n], which stops the scan in rank.
	cut []float64
	// guide[j] is a rank no higher than that of any u with int(u*n) == j,
	// and short of it only by the cutpoints inside that 1/n-wide bucket —
	// one on average.
	guide []uint32
	s     *rng.Stream
}

// DefaultTheta is the default skew. At theta=0.99 (YCSB's default) and the
// default 10k key space the hottest 20% of keys absorb ≈80% of draws.
const DefaultTheta = 0.99

// errZipfKeySpace refuses a key space whose ranks do not fit the guide
// table's 32-bit entries.
var errZipfKeySpace = errors.New("load: zipf key space exceeds 2^32-1 keys")

// NewZipf returns a seeded Zipfian key generator over [0, n). theta must be
// in (0, 1) — theta=1 diverges in this parameterization, and uniform
// traffic is only its theta→0 limit. Construction raises one power per key,
// as the harmonic sum alone always did, and keeps 12 bytes per key.
func NewZipf(n uint64, theta float64, seed int64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("load: zipf key space must be non-empty, got %d", n)
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("%w, got %d", errZipfKeySpace, n)
	}
	if !(theta > 0 && theta < 1) { // written so that NaN fails it too
		return nil, fmt.Errorf("load: zipf theta must be in (0,1), got %v", theta)
	}
	z := &Zipf{
		cut:   make([]float64, n+1),
		guide: make([]uint32, n),
		s:     rng.NewStream(seed, tagZipf),
	}
	// zetan is the generalized harmonic number sum_{i=1..n} 1/i^theta; the
	// same pass leaves i^(1-theta) in cut[i] for the inversion below.
	nf, zetan := float64(n), 0.0
	for i := uint64(1); i <= n; i++ {
		p := 1 / math.Pow(float64(i), theta)
		zetan += p
		z.cut[i] = float64(i) * p
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	eta := (1 - math.Pow(2/nf, 1-theta)) / (1 - zeta2/zetan)
	// Gray: u*zetan < 1 is rank 0, u*zetan < 1+0.5^theta is rank 1, and past
	// that the rank is n*(eta*u-eta+1)^(1/(1-theta)) whatever it comes to —
	// so rank k starts where that power reaches k/n, but never before the
	// head ends or the rank below began (floor carries both; written so a
	// NaN from a degenerate eta takes the floor as well).
	floor, scale := (1+math.Pow(0.5, theta))/zetan, math.Pow(nf, 1-theta)
	for k := uint64(2); k < n; k++ {
		c := (z.cut[k]/scale - 1 + eta) / eta
		if !(c > floor) {
			c = floor
		}
		z.cut[k], floor = c, c
	}
	z.cut[1] = 1 / zetan
	z.cut[n] = 2 // last, over cut[1] when n=1: a lone key has only rank 0
	// Buckets are taken as rank takes them, int(u*n): a u whose product
	// rounds up into bucket j still lies above every cutpoint counted here.
	k := uint32(0)
	for j := range z.guide {
		for int(z.cut[k+1]*nf) < j {
			k++
		}
		z.guide[j] = k
	}
	return z, nil
}

// Next draws the next key. Rank 0 is the hottest key.
//
//rubic:deterministic
//rubic:noalloc
func (z *Zipf) Next() uint64 { return z.rank(z.s.Float64()) }

// rank inverts the distribution at u in [0, 1).
//
//rubic:noalloc
func (z *Zipf) rank(u float64) uint64 {
	k := z.guide[int(u*float64(len(z.guide)))]
	for u >= z.cut[k+1] {
		k++
	}
	return uint64(k)
}

// Keys returns the size of the key space.
func (z *Zipf) Keys() uint64 { return uint64(len(z.guide)) }
