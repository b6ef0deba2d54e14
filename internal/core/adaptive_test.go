package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// adaptiveTestConfig keeps the epoch arithmetic in the tests small: one
// warmup epoch after every switch, two scored epochs per window, three
// consecutive bad epochs to re-probe.
func adaptiveTestConfig(cands ...string) AdaptiveConfig {
	return AdaptiveConfig{
		Candidates:     cands,
		Window:         2,
		Warmup:         1,
		Hysteresis:     3,
		Margin:         0.10,
		DriftThreshold: 0.25,
	}
}

// sig builds a clean signal with the given goodput score.
func sig(score float64) AdaptiveSignal { return AdaptiveSignal{Tput: score} }

func TestAdaptivePolicyValidation(t *testing.T) {
	if _, err := NewAdaptivePolicy(AdaptiveConfig{}); err == nil {
		t.Fatal("policy accepted an empty candidate list")
	}
	p, err := NewAdaptivePolicy(AdaptiveConfig{Candidates: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Current() != 0 {
		t.Fatalf("fresh policy at candidate %d", p.Current())
	}
}

// TestAdaptivePolicyProbeSweep pins the sweep schedule epoch by epoch:
// warmup, a full window on each candidate in index order, then settling on
// the argmax with the switch surfaced exactly once.
func TestAdaptivePolicyProbeSweep(t *testing.T) {
	p, err := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	// Candidate 0 scores 50; candidate 1 scores 100 and must win.
	steps := []struct {
		score      float64
		wantCand   int
		wantSwitch bool
		wantPhase  AdaptivePhase
	}{
		{50, 0, false, AdaptiveProbing},  // warmup, discarded
		{50, 0, false, AdaptiveProbing},  // window 1/2 on a
		{50, 1, true, AdaptiveProbing},   // window closes -> probe b
		{100, 1, false, AdaptiveProbing}, // warmup after the switch
		{100, 1, false, AdaptiveProbing}, // window 1/2 on b
		{100, 1, false, AdaptiveSettled}, // sweep done: b wins, already running
	}
	for i, step := range steps {
		dec := p.Observe(sig(step.score))
		if dec.Candidate != step.wantCand || dec.Switched != step.wantSwitch || dec.Phase != step.wantPhase {
			t.Fatalf("epoch %d: got {cand=%d switched=%v phase=%s}, want {%d %v %s}",
				i, dec.Candidate, dec.Switched, dec.Phase, step.wantCand, step.wantSwitch, step.wantPhase.String())
		}
	}
	st := p.Stats()
	if st.Probes != 2 || st.Switches != 1 || st.Reprobes != 0 {
		t.Fatalf("stats %+v, want 2 probes, 1 switch, 0 reprobes", st)
	}
}

// TestAdaptivePolicySettlesOnBest: when the first candidate wins, settling
// must switch back to it; exact ties resolve to the lowest index.
func TestAdaptivePolicySettlesOnBest(t *testing.T) {
	t.Run("first_wins", func(t *testing.T) {
		p, _ := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
		scores := []float64{0, 100, 100, 0, 40, 40}
		var last AdaptiveDecision
		for _, s := range scores {
			last = p.Observe(sig(s))
		}
		if !last.Switched || last.Candidate != 0 || last.Phase != AdaptiveSettled {
			t.Fatalf("settling decision %+v, want switch back to candidate 0", last)
		}
	})
	t.Run("tie_to_lowest", func(t *testing.T) {
		p, _ := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
		var last AdaptiveDecision
		for i := 0; i < 6; i++ {
			last = p.Observe(sig(70))
		}
		if last.Candidate != 0 || !last.Switched {
			t.Fatalf("tie settled on %+v, want candidate 0", last)
		}
	})
}

// TestAdaptivePolicyHysteresis: a settled policy shrugs off fewer than
// Hysteresis degraded epochs, and re-probes — incumbent first, no immediate
// switch — once the run of bad epochs reaches it.
func TestAdaptivePolicyHysteresis(t *testing.T) {
	p, _ := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
	for _, s := range []float64{0, 50, 50, 0, 100, 100} {
		p.Observe(sig(s)) // sweep: b wins with ref 100
	}
	// Fill the rolling window at the reference, then dip for two epochs and
	// recover: the windowed mean is degraded for exactly two consecutive
	// epochs (55, 55) before the recovery epoch clears it — under hysteresis
	// 3 that must not re-probe.
	var dec AdaptiveDecision
	for _, s := range []float64{100, 100, 10, 100, 100} {
		dec = p.Observe(sig(s))
	}
	if dec.Phase != AdaptiveSettled {
		t.Fatal("re-probed after only 2 degraded epochs with hysteresis 3")
	}
	if p.Stats().Reprobes != 0 {
		t.Fatalf("reprobes %d, want 0", p.Stats().Reprobes)
	}
	// Three consecutive degraded epochs (means 55, 10, 10) re-probe.
	p.Observe(sig(10))
	p.Observe(sig(10))
	dec = p.Observe(sig(10))
	if dec.Phase != AdaptiveProbing {
		t.Fatal("sustained degradation did not re-open probing")
	}
	if dec.Switched {
		t.Fatal("re-probe switched immediately; the incumbent must be re-measured first")
	}
	if dec.Candidate != 1 {
		t.Fatalf("re-probe starts at candidate %d, want the incumbent 1", dec.Candidate)
	}
	if p.Stats().Reprobes != 1 {
		t.Fatalf("reprobes %d, want 1", p.Stats().Reprobes)
	}
}

// TestAdaptivePolicyDriftReprobes: profile drift (abort ratio far from the
// settle-time anchor) re-probes even when the score holds up — the score may
// be saturated by an open-loop arrival rate while the workload underneath
// changed shape.
func TestAdaptivePolicyDriftReprobes(t *testing.T) {
	p, _ := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
	for _, s := range []float64{0, 50, 50, 0, 100, 100} {
		p.Observe(sig(s))
	}
	drifted := AdaptiveSignal{Tput: 100, AbortRatio: 0.6} // anchor was 0.0
	var dec AdaptiveDecision
	for i := 0; i < 3; i++ {
		dec = p.Observe(drifted)
	}
	if dec.Phase != AdaptiveProbing {
		t.Fatal("abort-ratio drift did not re-open probing")
	}
}

// TestAdaptivePolicyRestore pins restart semantics: a restored policy
// resumes settled on the preserved candidate without a probing sweep, keeps
// the preserved switch count, and re-anchors its drift references on the
// first observation instead of comparing against zeroes.
func TestAdaptivePolicyRestore(t *testing.T) {
	p, _ := NewAdaptivePolicy(adaptiveTestConfig("a", "b"))
	if p.Restore(AdaptiveState{Candidate: "nope"}) {
		t.Fatal("restore accepted an unknown candidate")
	}
	st := AdaptiveState{Candidate: "b", Phase: "settled", Reference: 100, Switches: 5}
	if !p.Restore(st) {
		t.Fatal("restore rejected a known candidate")
	}
	if p.Current() != 1 {
		t.Fatalf("restored to candidate %d, want 1", p.Current())
	}
	got := p.State()
	if got.Candidate != "b" || got.Phase != "settled" || got.Switches != 5 {
		t.Fatalf("state after restore %+v", got)
	}
	// A high-abort steady state must re-anchor, not read as drift: feed many
	// epochs at abort 0.6 (score at the reference) and require no re-probe.
	for i := 0; i < 10; i++ {
		dec := p.Observe(AdaptiveSignal{Tput: 250, AbortRatio: 0.6})
		if dec.Phase != AdaptiveSettled || dec.Switched {
			t.Fatalf("epoch %d after restore: %+v, want to stay settled", i, dec)
		}
	}
}

// TestTunerDrivesAdapter: the tuning loop must call the adapter once per
// tick, after actuation (the adapter observes the level already in force).
func TestTunerDrivesAdapter(t *testing.T) {
	target := &fakeTarget{}
	target.level.Store(1)
	ad := &recordingAdapter{target: target}
	tuner := &Tuner{
		Controller: NewRUBIC(RUBICConfig{MaxLevel: 8}),
		Target:     target,
		Period:     2 * time.Millisecond,
		Adapter:    ad,
	}
	tuner.Start()
	deadline := time.Now().Add(5 * time.Second)
	for ad.epochs.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tuner.Stop()
	if n := ad.epochs.Load(); n < 10 {
		t.Fatalf("adapter saw %d epochs after 5s", n)
	}
	if ad.beforeActuate.Load() {
		t.Fatal("adapter ran before the tick's SetLevel")
	}
}

type recordingAdapter struct {
	target        *fakeTarget
	epochs        atomic.Uint64
	beforeActuate atomic.Bool
}

func (a *recordingAdapter) Epoch(Observation) {
	// Every tick actuates before the adapter runs, so SetLevel calls must
	// always be ahead of the epoch count.
	if a.target.setCalls.Load() <= int32(a.epochs.Load()) {
		a.beforeActuate.Store(true)
	}
	a.epochs.Add(1)
}
