package stm

import (
	"testing"

	"rubic/internal/rng"
)

// Property tests for the conflict-profile sampler: synthetic workloads with
// known set sizes and abort counts must reproduce them exactly (the sampler
// is pure arithmetic over counter deltas — there is no estimation error on a
// sequential schedule), and the profile must be a deterministic function of
// the operation sequence.

var profileEngines = []Algorithm{TL2, NOrec}

// TestProfileKnownSetSizes: N sequential transactions each reading 3 vars
// and read-modify-writing 1 must profile to MeanReadSet=3, MeanWriteSet=1,
// AbortRatio=0 on both engines.
func TestProfileKnownSetSizes(t *testing.T) {
	for _, algo := range profileEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			vars := [3]*Var[int]{NewVar(0), NewVar(0), NewVar(0)}
			prev := rt.Stats()
			const n = 50
			for i := 0; i < n; i++ {
				err := rt.Atomic(func(tx *Tx) error {
					for _, v := range vars {
						v.Read(tx)
					}
					vars[i%3].Write(tx, i)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			p := ProfileBetween(prev, rt.Stats())
			if p.Commits != n || p.Aborts != 0 {
				t.Fatalf("commits=%d aborts=%d, want %d/0", p.Commits, p.Aborts, n)
			}
			if p.AbortRatio != 0 {
				t.Fatalf("abort ratio %v, want 0", p.AbortRatio)
			}
			if p.MeanReadSet != 3 {
				t.Fatalf("mean read set %v, want exactly 3", p.MeanReadSet)
			}
			if p.MeanWriteSet != 1 {
				t.Fatalf("mean write set %v, want exactly 1", p.MeanWriteSet)
			}
		})
	}
}

// TestProfileReadOnlyMix: read-only commits contribute to the read-set mean
// but not the write-set mean, whose denominator is writer commits only.
func TestProfileReadOnlyMix(t *testing.T) {
	for _, algo := range profileEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			vars := [4]*Var[int]{NewVar(0), NewVar(0), NewVar(0), NewVar(0)}
			prev := rt.Stats()
			const writers, readers = 10, 30
			for i := 0; i < writers; i++ {
				err := rt.Atomic(func(tx *Tx) error {
					vars[0].Read(tx)
					vars[1].Write(tx, i)
					vars[2].Write(tx, i)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < readers; i++ {
				err := rt.AtomicRO(func(tx *Tx) error {
					for _, v := range vars {
						v.Read(tx)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			p := ProfileBetween(prev, rt.Stats())
			// Read sets average over every commit, but the engines track them
			// differently and the profile reports what the engine paid for:
			// TL2's read-only transactions are invisible readers with no read
			// set at all (they restart rather than revalidate), while NOrec's
			// value log records every read. Writers contribute 1 read each on
			// both engines; readers contribute 4 on NOrec and 0 on TL2.
			wantRead := float64(writers*1) / float64(writers+readers)
			if algo == NOrec {
				wantRead = float64(writers*1+readers*4) / float64(writers+readers)
			}
			if p.MeanReadSet != wantRead {
				t.Fatalf("mean read set %v, want %v", p.MeanReadSet, wantRead)
			}
			if p.MeanWriteSet != 2 {
				t.Fatalf("mean write set %v, want exactly 2 (readers must not dilute it)", p.MeanWriteSet)
			}
		})
	}
}

// TestProfileKnownAbortRatio manufactures a deterministic abort schedule:
// each outer transaction's first attempt is sabotaged by a nested conflicting
// commit, so every outer block aborts exactly once and the inner commits
// never abort — N aborts against 2N commits, ratio exactly 1/3.
func TestProfileKnownAbortRatio(t *testing.T) {
	for _, algo := range profileEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := New(Config{Algorithm: algo})
			watched := NewVar(0)
			out := NewVar(0)
			prev := rt.Stats()
			const n = 20
			for i := 0; i < n; i++ {
				err := rt.Atomic(func(tx *Tx) error {
					watched.Read(tx)
					if tx.Attempt() == 0 {
						// Conflicting commit from an independent transaction
						// invalidates the read above; the outer commit must
						// abort and the retry (attempt 1) goes through clean.
						if err := rt.Atomic(func(in *Tx) error {
							watched.Write(in, i+1)
							return nil
						}); err != nil {
							return err
						}
					}
					out.Write(tx, i)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			p := ProfileBetween(prev, rt.Stats())
			if p.Commits != 2*n || p.Aborts != n {
				t.Fatalf("commits=%d aborts=%d, want %d/%d", p.Commits, p.Aborts, 2*n, n)
			}
			if want := 1.0 / 3.0; p.AbortRatio != want {
				t.Fatalf("abort ratio %v, want exactly %v", p.AbortRatio, want)
			}
		})
	}
}

// TestProfileConflictDegree: writers hammering one var must profile a much
// higher signature-overlap degree than writers spread across disjoint vars.
// The signature is a hash, so the disjoint case is bounded loosely (collision
// bits are possible), but the ordering property must hold with a wide gap.
func TestProfileConflictDegree(t *testing.T) {
	for _, algo := range profileEngines {
		t.Run(algo.String(), func(t *testing.T) {
			// The aggregate samples one writer commit in sigSampleEvery, so the
			// run is that many times the 12 samples it wants: few enough that
			// the disjoint case cannot saturate the 64-bit aggregate (each
			// sample sets one hashed bit; the expected cumulative overlap stays
			// near zero even with a stray collision), and below the decay
			// window so no reset intervenes.
			const n = 12 * sigSampleEvery
			degree := func(disjoint bool) (deg float64, samples, overlap uint64) {
				rt := New(Config{Algorithm: algo})
				hot := NewVar(0)
				vars := make([]*Var[int], n)
				for i := range vars {
					vars[i] = NewVar(0)
				}
				prev := rt.Stats()
				for i := 0; i < n; i++ {
					target := hot
					if disjoint {
						target = vars[i]
					}
					if err := rt.Atomic(func(tx *Tx) error { target.Write(tx, i); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				cur := rt.Stats()
				// One-var write sets: every sample contributes exactly one bit.
				return ProfileBetween(prev, cur).ConflictDegree, cur.SigBits - prev.SigBits, cur.SigOverlap - prev.SigOverlap
			}
			same, samples, overlap := degree(false)
			spread, _, _ := degree(true)
			// Sequential commits draw consecutive timestamps, so the sample is
			// exactly every sigSampleEvery-th of them.
			if samples != n/sigSampleEvery {
				t.Fatalf("%d commits fed %d samples, want %d", n, samples, n/sigSampleEvery)
			}
			// Same-var writers: every sample after the first overlaps the
			// aggregate fully — degree (k-1)/k over k samples.
			if overlap != samples-1 || same != float64(samples-1)/float64(samples) {
				t.Fatalf("same-var: %d samples, overlap %d, degree %v; want overlap %d", samples, overlap, same, samples-1)
			}
			if spread > same/2 {
				t.Fatalf("disjoint-var degree %v not well below same-var %v", spread, same)
			}
			if same < 0 || same > 1 || spread < 0 || spread > 1 {
				t.Fatalf("degrees out of [0,1]: same=%v spread=%v", same, spread)
			}
		})
	}
}

// TestProfileDeterministic: the same rng-stream-driven operation sequence on
// a fresh runtime must produce bit-identical profiles — the sampler feeds
// the adaptive policy, whose decisions are replayed by tests and restores.
func TestProfileDeterministic(t *testing.T) {
	for _, algo := range profileEngines {
		t.Run(algo.String(), func(t *testing.T) {
			run := func() ConflictProfile {
				rt := New(Config{Algorithm: algo})
				vars := make([]*Var[int], 8)
				for i := range vars {
					vars[i] = NewVar(0)
				}
				s := rng.NewStream(42, 0xadab7)
				prev := rt.Stats()
				for i := 0; i < 200; i++ {
					reads := 1 + int(s.Uint64()%4)
					widx := int(s.Uint64()) % len(vars)
					if widx < 0 {
						widx = -widx
					}
					ro := s.Uint64()%4 == 0
					body := func(tx *Tx) error {
						for j := 0; j < reads; j++ {
							vars[(widx+j)%len(vars)].Read(tx)
						}
						if !ro {
							vars[widx].Write(tx, i)
						}
						return nil
					}
					var err error
					if ro {
						err = rt.AtomicRO(body)
					} else {
						err = rt.Atomic(body)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return ProfileBetween(prev, rt.Stats())
			}
			a, b := run(), run()
			// ConflictDegree is excluded from the exact comparison: the write
			// signature hashes varBase addresses, so cross-run bit collisions
			// between DISTINCT vars are allocation-dependent. Everything the
			// policy scores on besides the degree must be bit-identical.
			aCmp, bCmp := a, b
			aCmp.ConflictDegree, bCmp.ConflictDegree = 0, 0
			if aCmp != bCmp {
				t.Fatalf("profiles diverged across identical runs:\n a=%+v\n b=%+v", a, b)
			}
			if a.ConflictDegree < 0 || a.ConflictDegree > 1 {
				t.Fatalf("conflict degree %v out of [0,1]", a.ConflictDegree)
			}

			// On a single-var workload the signature term is one fixed bit, so
			// the FULL profile — degree included — must be deterministic.
			single := func() ConflictProfile {
				rt := New(Config{Algorithm: algo})
				v := NewVar(0)
				s := rng.NewStream(7, 0xadab7)
				prev := rt.Stats()
				for i := 0; i < 100; i++ {
					if s.Uint64()%3 == 0 {
						if err := rt.AtomicRO(func(tx *Tx) error { v.Read(tx); return nil }); err != nil {
							t.Fatal(err)
						}
					} else if err := rt.Atomic(func(tx *Tx) error { v.Write(tx, i); return nil }); err != nil {
						t.Fatal(err)
					}
				}
				return ProfileBetween(prev, rt.Stats())
			}
			if x, y := single(), single(); x != y {
				t.Fatalf("single-var profiles diverged:\n a=%+v\n b=%+v", x, y)
			}
		})
	}
}
