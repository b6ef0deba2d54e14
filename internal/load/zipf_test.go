package load

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
