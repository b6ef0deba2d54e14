package core

import (
	"testing"
	"time"
)

// Restore-ordering semantics: RUBIC.RestoreState is the funnel through which
// BOTH the SLO stage's cuts and the adaptive stack's engine-handoff
// re-anchoring pass, and in an adaptive serve stack both can fire in the same
// epoch. These tests pin the contract that makes the double restore safe: an
// un-epoched restore restarts the cubic round count, ceilings clamp, an
// inverted anchor normalizes to the level, and — because Step drives the
// adapter after the epoch's decision is actuated — the handoff's snapshot
// already contains the cut, so replaying it through the restore path cannot
// resurrect the pre-cut level.

func TestRestoreStateTable(t *testing.T) {
	cases := []struct {
		name string
		st   TuningState
		// wantLevel/wantLmax/wantDtmax are the internal fields after restore.
		wantLevel, wantLmax, wantDtmax float64
	}{
		{
			name:      "unepoched_restore_zeroes_dtmax",
			st:        TuningState{Level: 3, WMax: 6, Epoch: 0},
			wantLevel: 3, wantLmax: 6, wantDtmax: 0,
		},
		{
			name:      "epoched_restore_keeps_round_count",
			st:        TuningState{Level: 3, WMax: 6, Epoch: 4},
			wantLevel: 3, wantLmax: 6, wantDtmax: 4,
		},
		{
			name:      "ceiling_clamps_both_anchors",
			st:        TuningState{Level: 100, WMax: 200, Epoch: 0},
			wantLevel: 16, wantLmax: 16, wantDtmax: 0,
		},
		{
			name: "inverted_anchor_normalizes_to_level",
			// A mixed snapshot (level from before a cut, wMax from after one)
			// must not leave cubic growth aiming below the current level.
			st:        TuningState{Level: 8, WMax: 2, Epoch: 0},
			wantLevel: 8, wantLmax: 8, wantDtmax: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRUBIC(RUBICConfig{MaxLevel: 16})
			// Accumulate growth rounds so a zeroed dtmax is distinguishable
			// from a never-set one.
			for i := 0; i < 3; i++ {
				r.Next(float64(100 + i))
			}
			if r.dtmax == 0 {
				t.Fatal("setup: growth rounds left dtmax at 0")
			}
			r.RestoreState(tc.st)
			if r.level != tc.wantLevel || r.lmax != tc.wantLmax || r.dtmax != tc.wantDtmax {
				t.Fatalf("after restore: level=%v lmax=%v dtmax=%v, want %v/%v/%v",
					r.level, r.lmax, r.dtmax, tc.wantLevel, tc.wantLmax, tc.wantDtmax)
			}
			if r.lmax < r.level {
				t.Fatalf("restore left the anchor inverted: lmax=%v < level=%v", r.lmax, r.level)
			}
		})
	}

	// Sub-floor fields are ignored, not clamped: the controller keeps its
	// live level and anchor (normalized) rather than collapsing to the floor
	// on a zeroed snapshot.
	t.Run("sub_floor_fields_ignored", func(t *testing.T) {
		r := NewRUBIC(RUBICConfig{MaxLevel: 16})
		for i := 0; i < 3; i++ {
			r.Next(float64(100 + i))
		}
		before := r.level
		r.RestoreState(TuningState{Level: 0.5, WMax: 0.25, Epoch: 0})
		if r.level != before {
			t.Fatalf("sub-floor restore moved the level %v -> %v", before, r.level)
		}
		if r.lmax < r.level || r.dtmax != 0 {
			t.Fatalf("after restore: lmax=%v level=%v dtmax=%v", r.lmax, r.level, r.dtmax)
		}
	})
}

// handoffAdapter is an engine handoff in the shape colocate.AdaptiveStack
// gives it: export the base controller's state, restore it un-epoched.
type handoffAdapter struct {
	ctrl *RUBIC
	snap TuningState
}

func (h *handoffAdapter) Epoch(Observation) {
	h.snap = h.ctrl.ExportState()
	h.ctrl.RestoreState(TuningState{Level: h.snap.Level, WMax: h.snap.WMax})
}

// TestGuardCutThenHandoffSameEpoch replays the exact double-restore sequence
// of an adaptive serve stack inside one Step: the SLO stage confirms a breach
// and cuts (first RestoreState), then — same epoch, because Step drives the
// adapter after actuation — an engine handoff exports the controller and
// restores it un-epoched (second RestoreState). The cut must survive the
// round trip exactly.
func TestGuardCutThenHandoffSameEpoch(t *testing.T) {
	inner := NewRUBIC(RUBICConfig{MaxLevel: 16, InitialLevel: 10})
	tuner, guard := sloTuner(t, inner, SLOPolicy{
		TargetP99:   time.Millisecond,
		BreachAfter: 1,
		Alpha:       0.5,
	})
	handoff := &handoffAdapter{ctrl: inner}
	tuner.Adapter = handoff
	// Some growth history so the cut's Epoch-zeroing is observable.
	inner.dtmax = 3

	// Epoch decision: confirmed breach, multiplicative cut 10 -> 5 anchored
	// at 10.
	if level := epoch(tuner, 2*time.Millisecond, 100); level != 5 {
		t.Fatalf("cut actuated level %d, want 5", level)
	}
	// Engine handoff later the same epoch: its snapshot is the controller
	// after the cut, round count already restarted by the cut's restore.
	if handoff.snap != (TuningState{Level: 5, WMax: 10, Epoch: 0}) {
		t.Fatalf("handoff snapshot %+v taken after the cut must reflect it (want 5/10/0)", handoff.snap)
	}
	if inner.level != 5 || inner.lmax != 10 || inner.dtmax != 0 {
		t.Fatalf("after handoff restore: level=%v lmax=%v dtmax=%v, want 5/10/0 (cut resurrected?)",
			inner.level, inner.lmax, inner.dtmax)
	}

	// The stage's own posture is untouched by the handoff: the next meeting
	// epoch resumes cubic growth toward the breach anchor.
	if guard.State() != Breaching {
		t.Fatalf("posture %v after the cut, want breaching", guard.State())
	}
	if got := epoch(tuner, time.Microsecond, 100); got <= 5 || got > 10 {
		t.Fatalf("post-handoff growth actuated %d, want within (5, 10]", got)
	}
}
