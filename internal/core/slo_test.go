package core

import (
	"testing"
	"time"
)

// sloTuner is a Step-driven Tuner whose chain is the SLO stage over inner.
func sloTuner(t *testing.T, inner Controller, cfg SLOPolicy) (*Tuner, *SLOGuard) {
	t.Helper()
	g, err := NewSLOGuard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuner, _ := stepTuner(inner, nil, g)
	return tuner, g
}

// growToSLO drives the chain with meeting epochs (p99 well under target,
// monotonically improving throughput) until it reaches the target level.
func growToSLO(t *testing.T, tuner *Tuner, target int) int {
	t.Helper()
	return growTo(t, feed(tuner, tuner.SLO.cfg.TargetP99/10), tuner.held(), target)
}

// epoch is one observation of an open-loop epoch.
func epoch(tuner *Tuner, p99 time.Duration, tput float64) int {
	return feed(tuner, p99)(tput)
}

// TestSLOGuardBreachCutsWithinK is the satellite's contract, table-driven
// over K and alpha: a sustained p99 breach must drive the level down within
// K epochs, and recovery must re-enter CUBIC growth from the preserved wMax
// (mirroring TestHealthGuardDegradationLadder's structure).
func TestSLOGuardBreachCutsWithinK(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		alpha float64
	}{
		{"immediate", 1, 0.8},
		{"default", DefaultBreachAfter, DefaultSLOAlpha},
		{"patient", 4, 0.5},
	}
	const slo = 10 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewRUBIC(RUBICConfig{MaxLevel: 32})
			tuner, g := sloTuner(t, inner, SLOPolicy{TargetP99: slo, BreachAfter: tc.k, Alpha: tc.alpha})
			held := growToSLO(t, tuner, 10)
			if g.State() != Meeting {
				t.Fatalf("state %v after meeting epochs", g.State())
			}

			// Breach: p99 2x over target. The first K-1 epochs hold the
			// level; epoch K cuts it multiplicatively.
			for i := 1; i < tc.k; i++ {
				level := epoch(tuner, 2*slo, 50)
				if g.State() != Breaching || level != held {
					t.Fatalf("breach epoch %d: state %v level %d, want breaching hold at %d", i, g.State(), level, held)
				}
			}
			cut := epoch(tuner, 2*slo, 50)
			if cut >= held {
				t.Fatalf("confirmed breach did not cut: level %d, was %d", cut, held)
			}
			wantCut := int(tc.alpha * float64(held))
			if wantCut >= held {
				wantCut = held - 1
			}
			if wantCut < 1 {
				wantCut = 1
			}
			if cut != wantCut {
				t.Fatalf("cut to %d, want alpha-cut %d", cut, wantCut)
			}
			st := g.Stats()
			if st.Cuts != 1 || st.Breaches != uint64(tc.k) {
				t.Fatalf("stats %+v, want 1 cut after %d breaches", st, tc.k)
			}

			// The cut is installed through the restore path: wMax anchors at
			// the breach level so recovery re-enters cubic growth toward it.
			inSt := inner.ExportState()
			if pub, ok := tuner.TuningState(); !ok || pub != inSt {
				t.Fatalf("published state %+v (ok=%v) is not the cut controller's %+v", pub, ok, inSt)
			}
			if int(inSt.WMax) != held || int(inSt.Level) != cut {
				t.Fatalf("restored state %+v, want level %d anchored at wMax %d", inSt, cut, held)
			}

			// Recovery: one meeting epoch flips the posture and growth
			// resumes from the cut level, climbing back toward wMax on the
			// cubic curve rather than jumping past it.
			level := epoch(tuner, slo/10, 500)
			if g.State() != Meeting || g.Stats().Recoveries != 1 {
				t.Fatalf("state %v recoveries %d after a meeting epoch", g.State(), g.Stats().Recoveries)
			}
			if level < cut || level > held {
				t.Fatalf("first recovery level %d outside [%d, %d]", level, cut, held)
			}
			growToSLO(t, tuner, held) // cubic growth reaches the anchor again
		})
	}
}

// TestSLOGuardSustainedBreachReachesFloor: a breach that never recovers
// keeps cutting every K epochs down to MinLevel and stays there.
func TestSLOGuardSustainedBreachReachesFloor(t *testing.T) {
	const slo = time.Millisecond
	tuner, g := sloTuner(t, NewRUBIC(RUBICConfig{MaxLevel: 32}), SLOPolicy{TargetP99: slo, BreachAfter: 2, MinLevel: 2})
	level := growToSLO(t, tuner, 16)
	for i := 0; i < 40; i++ {
		next := epoch(tuner, 10*slo, 10)
		if next > level {
			t.Fatalf("level rose from %d to %d during a sustained breach", level, next)
		}
		level = next
	}
	if level != 2 {
		t.Fatalf("sustained breach settled at %d, want the MinLevel floor 2", level)
	}
	if g.Stats().Cuts < 3 {
		t.Fatalf("only %d cuts on the way to the floor", g.Stats().Cuts)
	}
}

// TestSLOGuardSingleEpochNoiseHolds: with K=2, one noisy epoch must not
// cut; the guard holds and a meeting epoch re-arms.
func TestSLOGuardSingleEpochNoiseHolds(t *testing.T) {
	const slo = time.Millisecond
	tuner, g := sloTuner(t, NewRUBIC(RUBICConfig{MaxLevel: 16}), SLOPolicy{TargetP99: slo, BreachAfter: 2})
	held := growToSLO(t, tuner, 8)
	for round := 0; round < 5; round++ {
		if level := epoch(tuner, 5*slo, 100); level != held {
			t.Fatalf("round %d: single breach epoch moved the level to %d", round, level)
		}
		held = epoch(tuner, slo/10, 1000) // meeting epoch re-arms the breach count
	}
	if st := g.Stats(); st.Cuts != 0 || st.Recoveries != 5 {
		t.Fatalf("stats %+v, want 0 cuts and 5 recoveries", st)
	}
}

// TestSLOGuardNonResumableInner: the cut still actuates over controllers
// without a restore path.
func TestSLOGuardNonResumableInner(t *testing.T) {
	const slo = time.Millisecond
	tuner, _ := sloTuner(t, NewAIAD(16, 1), SLOPolicy{TargetP99: slo, BreachAfter: 1})
	held := growToSLO(t, tuner, 8)
	cut := epoch(tuner, 2*slo, 10)
	if cut >= held {
		t.Fatalf("cut %d not below held %d", cut, held)
	}
	if got := int(tuner.Target.(*fakeTarget).level.Load()); got != cut {
		t.Fatalf("actuated level %d, want the cut %d", got, cut)
	}
}

// TestSLOGuardIdleEpochIsNotABreach: an epoch with no completions (p99 0)
// counts as meeting — an idle service is not missing its SLO.
func TestSLOGuardIdleEpochIsNotABreach(t *testing.T) {
	tuner, g := sloTuner(t, NewRUBIC(RUBICConfig{MaxLevel: 8}), SLOPolicy{TargetP99: time.Millisecond})
	growToSLO(t, tuner, 4)
	epoch(tuner, 5*time.Millisecond, 10) // arm a breach
	if g.State() != Breaching {
		t.Fatal("breach epoch did not arm")
	}
	epoch(tuner, 0, 0) // idle epoch
	if g.State() != Meeting || g.Stats().Cuts != 0 {
		t.Fatalf("idle epoch: state %v cuts %d, want meeting with no cut", g.State(), g.Stats().Cuts)
	}
}

// TestSLOGuardBadPolicy pins constructor validation.
func TestSLOGuardBadPolicy(t *testing.T) {
	if _, err := NewSLOGuard(SLOPolicy{}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := NewSLOGuard(SLOPolicy{TargetP99: time.Second, Alpha: 1.5}); err == nil {
		t.Fatal("alpha >= 1 accepted")
	}
}
