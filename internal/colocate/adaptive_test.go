package colocate

import (
	"testing"

	"rubic/internal/core"
	"rubic/internal/stm"
)

func TestParseCM(t *testing.T) {
	for name, want := range map[string]string{
		"":          stm.BackoffCM{}.Name(),
		"backoff":   stm.BackoffCM{}.Name(),
		"suicide":   stm.SuicideCM{}.Name(),
		"greedy":    stm.GreedyCM{}.Name(),
		"two-phase": stm.TwoPhaseCM{}.Name(),
		"twophase":  stm.TwoPhaseCM{}.Name(),
		"karma":     stm.KarmaCM{}.Name(),
		"polka":     stm.PolkaCM{}.Name(),
	} {
		ctor, err := parseCM(name)
		if err != nil {
			t.Fatalf("parseCM(%q): %v", name, err)
		}
		if got := ctor().Name(); got != want {
			t.Fatalf("parseCM(%q) built %q, want %q", name, got, want)
		}
	}
	if _, err := parseCM("aggressive"); err == nil {
		t.Fatal("unknown contention manager accepted")
	}
}

func TestParseAdaptive(t *testing.T) {
	t.Run("slash_and_colon_mix", func(t *testing.T) {
		// ':' is the one engine/CM separator: '/' delimits a stack spec's
		// keys, so an adaptive= value cannot carry it.
		cands, err := ParseAdaptive("tl2:backoff+norec:greedy")
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != 2 {
			t.Fatalf("parsed to %d candidates", len(cands))
		}
		if cands[0].name != "tl2/backoff" || cands[0].engine != stm.TL2 {
			t.Fatalf("candidate 0: %+v", cands[0])
		}
		if cands[1].name != "norec/greedy" || cands[1].engine != stm.NOrec {
			t.Fatalf("candidate 1: %+v", cands[1])
		}
		if got := cands[1].cm().Name(); got != (stm.GreedyCM{}).Name() {
			t.Fatalf("candidate 1 CM %q", got)
		}
		for _, slash := range []string{"tl2/backoff+norec/greedy", "tl2:backoff+norec/greedy"} {
			if _, err := ParseAdaptive(slash); err == nil {
				t.Errorf("ParseAdaptive(%q) accepted '/' as a separator", slash)
			}
		}
	})
	t.Run("cm_defaults_to_backoff", func(t *testing.T) {
		cands, err := ParseAdaptive("norec")
		if err != nil {
			t.Fatal(err)
		}
		if cands[0].name != "norec/backoff" || cands[0].cm().Name() != (stm.BackoffCM{}).Name() {
			t.Fatalf("bare engine candidate %+v with CM %q", cands[0], cands[0].cm().Name())
		}
	})
	t.Run("rejects", func(t *testing.T) {
		for _, spec := range []string{
			"",                          // empty
			"   ",                       // blank
			"tl2+tl2:backoff",           // duplicate after CM defaulting
			"norec:greedy+norec:greedy", // duplicate
			"stmx:backoff",              // unknown engine
			"tl2:aggressive",            // unknown CM
		} {
			if _, err := ParseAdaptive(spec); err == nil {
				t.Fatalf("ParseAdaptive(%q) accepted", spec)
			}
		}
	})
}

// TestAdaptiveStackActuatesFirstCandidate: construction installs candidate 0
// — engine and a freshly built CM — before any epoch runs, so the stack never
// serves on a configuration outside its candidate list.
func TestAdaptiveStackActuatesFirstCandidate(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.TL2})
	stack, err := newAdaptiveStack(rt, nil, "norec:greedy+tl2:backoff", core.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Algorithm(); got != stm.NOrec {
		t.Fatalf("runtime on %s after construction, want norec", got.String())
	}
	if got := rt.ContentionManagerName(); got != (stm.GreedyCM{}).Name() {
		t.Fatalf("CM %q after construction, want greedy", got)
	}
	if stack.Handoffs() != 1 {
		t.Fatalf("handoffs %d after the construction switch, want 1", stack.Handoffs())
	}
	if names := stack.policy.Candidates(); len(names) != 2 || names[0] != "norec/greedy" {
		t.Fatalf("policy candidates %v", names)
	}
}

// TestAdaptiveStackEpochDrivesSwitches walks a two-candidate probe sweep
// through Epoch: each call samples the runtime profile, feeds the policy, and
// actuates the decision — the engine handoff and CM swap land on the runtime.
func TestAdaptiveStackEpochDrivesSwitches(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.TL2})
	stack, err := newAdaptiveStack(rt, nil, "tl2:backoff+norec:greedy", core.AdaptiveConfig{
		Window: 1,
		Warmup: -1, // no warmup: every epoch scores
	})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 closes candidate 0's window and probes candidate 1: the stack
	// must be on norec/greedy afterwards.
	stack.Epoch(core.Observation{Tput: 50})
	if rt.Algorithm() != stm.NOrec || rt.ContentionManagerName() != (stm.GreedyCM{}).Name() {
		t.Fatalf("after probe switch: %s/%s, want norec/greedy",
			rt.Algorithm().String(), rt.ContentionManagerName())
	}
	if stack.Handoffs() != 1 {
		t.Fatalf("handoffs %d, want 1", stack.Handoffs())
	}
	// Epoch 2 closes candidate 1's window; the sweep settles on the higher
	// score — candidate 1, already running, so no further handoff.
	stack.Epoch(core.Observation{Tput: 100})
	if stack.policy.Current() != 1 {
		t.Fatalf("settled on candidate %d, want 1", stack.policy.Current())
	}
	if rt.Algorithm() != stm.NOrec || stack.Handoffs() != 1 {
		t.Fatalf("settling flapped the runtime: %s, %d handoffs",
			rt.Algorithm().String(), stack.Handoffs())
	}
	// The runtime keeps committing on the swapped stack.
	v := stm.NewVar(0)
	if err := rt.Atomic(func(tx *stm.Tx) error { v.Write(tx, 1); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveStackReanchorsController: an engine handoff exports the bound
// controller's state at the handoff instant and restores it un-epoched — the
// learned level and anchor survive, the cubic round count restarts.
func TestAdaptiveStackReanchorsController(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.TL2})
	ctrl := core.NewRUBIC(core.RUBICConfig{MaxLevel: 16, InitialLevel: 6})
	stack, err := newAdaptiveStack(rt, ctrl, "tl2:backoff+norec:backoff", core.AdaptiveConfig{
		Window: 1,
		Warmup: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the controller learn a level above its anchor floor.
	for i := 0; i < 3; i++ {
		ctrl.Next(float64(100 + i))
	}
	before := ctrl.ExportState()
	stack.Epoch(core.Observation{Tput: 50}) // probe switch tl2 -> norec: handoff + re-anchor
	if stack.Handoffs() != 1 {
		t.Fatalf("handoffs %d, want 1", stack.Handoffs())
	}
	after := ctrl.ExportState()
	// Growth can leave the level above the anchor; the restore path then
	// normalizes the anchor up to the level rather than aiming growth below it.
	wantWMax := before.WMax
	if wantWMax < before.Level {
		wantWMax = before.Level
	}
	if after.Level != before.Level || after.WMax != wantWMax {
		t.Fatalf("handoff moved the controller: %+v -> %+v (want level %v, wmax %v)",
			before, after, before.Level, wantWMax)
	}
	if after.Epoch != 0 {
		t.Fatalf("handoff kept the cubic round count %v, want a restart at 0", after.Epoch)
	}
}

// TestAdaptiveStackRestore: a restored stack adopts the predecessor's
// candidate and actuates it — runtime engine included — without a sweep.
func TestAdaptiveStackRestore(t *testing.T) {
	rt := stm.New(stm.Config{Algorithm: stm.TL2})
	stack, err := newAdaptiveStack(rt, nil, "tl2:backoff+norec:greedy", core.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stack.Restore(core.AdaptiveState{Candidate: "stmx/none"}) {
		t.Fatal("restore accepted an unknown candidate")
	}
	if !stack.Restore(core.AdaptiveState{Candidate: "norec/greedy", Phase: "settled", Reference: 80, Switches: 3}) {
		t.Fatal("restore rejected a known candidate")
	}
	if rt.Algorithm() != stm.NOrec || rt.ContentionManagerName() != (stm.GreedyCM{}).Name() {
		t.Fatalf("restore left the runtime on %s/%s, want norec/greedy",
			rt.Algorithm().String(), rt.ContentionManagerName())
	}
	st := stack.State()
	if st.Candidate != "norec/greedy" || st.Phase != "settled" || st.Switches != 3 {
		t.Fatalf("state after restore %+v", st)
	}
}

// TestServeSpecAdaptiveKey: adaptive= on an open-loop stack re-anchors the
// base controller the server's decision step drives, the one the SLO stage
// cuts; a bad candidate list surfaces when the stack is built.
func TestServeSpecAdaptiveKey(t *testing.T) {
	opts := StackOptions{StackFlags: StackFlags{Engine: "tl2", Pool: 4, Seed: 1}, Processes: 1}
	spec, err := parseSpec("kv/qps=400/slo=5ms/adaptive=tl2:backoff+norec:greedy")
	if err != nil {
		t.Fatal(err)
	}
	proc, err := spec.Proc("P1", opts)
	if err != nil {
		t.Fatal(err)
	}
	stack, ok := proc.Adapter.(*AdaptiveStack)
	if !ok {
		t.Fatal("built serve proc has no adaptive stack wired")
	}
	if proc.Serve.SLO == nil || proc.Controller == nil || stack.ctrl != proc.Controller {
		t.Fatalf("adaptive stack bound to %v, want the stack's base controller %v", stack.ctrl, proc.Controller)
	}
	spec.Adaptive = "tl2:nope"
	if _, err := spec.Proc("P1", opts); err == nil {
		t.Fatal("Proc accepted an unknown adaptive CM")
	}
}
