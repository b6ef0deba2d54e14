package colocate

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	s, err := parseSpec("rbtree-ro:rubic@250ms")
	if err != nil {
		t.Fatal(err)
	}
	if s != (StackSpec{Workload: "rbtree-ro", Policy: "rubic", ArrivalDelay: 250 * time.Millisecond}) {
		t.Fatalf("parsed %+v", s)
	}
	s, err = parseSpec("bank:greedy")
	if err != nil {
		t.Fatal(err)
	}
	if s != (StackSpec{Workload: "bank", Policy: "greedy"}) {
		t.Fatalf("parsed %+v", s)
	}
	s, err = parseSpec("bank:rubic@1s/adaptive=tl2:backoff+norec:greedy")
	if err != nil {
		t.Fatal(err)
	}
	if s != (StackSpec{Workload: "bank", Policy: "rubic", ArrivalDelay: time.Second, Adaptive: "tl2:backoff+norec:greedy"}) {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{
		"", "rbtree", "rbtree:", ":rubic", "rbtree:rubic@x", "rbtree:rubic@-1s",
		"kv:/qps=1",             // a named policy must be named
		"kv/qps",                // option without value
		"kv/qps=0",              // zero rate
		"kv/qps=NaN",            // NaN rate
		"kv/qps=+Inf",           // unbounded rate
		"kv/qps=800/warp=1",     // unknown key
		"kv/qps=800/policy=slo", // the policy is named in the head
		"kv/qps=800/slo=fast",   // unparsable duration
		"kv/qps=800/slo=0s",     // no target
		"kv/qps=1/qps=2",        // one key, twice
	} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("rbtree-ro:rubic,bank:ebs@1s,kv/qps=200")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[1].ArrivalDelay != time.Second || specs[2].QPS != 200 {
		t.Fatalf("parsed %+v", specs)
	}
	if _, err := ParseSpecs("rbtree-ro:rubic,broken"); err == nil {
		t.Error("accepted list with a broken member")
	}
}

// TestSpecKeysThatDoNotApply: a key that does not apply to its stack is a
// named error — at parse, or at build where applying needs the built
// workload — never silently ignored.
func TestSpecKeysThatDoNotApply(t *testing.T) {
	for spec, want := range map[string]error{
		"kv/qps=100/shards=3":          errShardedOnly,
		"shardedkv/qps=100/shards=-3":  errOutOfRange,
		"shardedkv/qps=100/shards=0":   errOutOfRange,
		"bank/qps=100/theta=0.5":       errKeyedOnly,
		"bank/qps=100/theta=5":         errOutOfRange,
		"kv/qps=100/theta=NaN":         errOutOfRange,
		"kv/qps=100/theta=1":           errOutOfRange,
		"kv:rubic/theta=0.5":           errOpenLoopOnly,
		"bank:rubic/slo=5ms":           errOpenLoopOnly,
		"bank:rubic/arrival=burst":     errOpenLoopOnly,
		"shardedkv:rubic/shards=2":     errOpenLoopOnly,
		"kv:greedy/qps=100/slo=5ms":    errNeedsTuner,
		"bank:greedy/adaptive=tl2":     errNeedsTuner,
		"shardedkv/qps=1/adaptive=tl2": errNeedsRuntime,
	} {
		specs, err := ParseSpecs(spec)
		if err == nil {
			_, err = specs[0].Proc("P1", StackOptions{StackFlags: StackFlags{Engine: "tl2", Pool: 2}, Processes: 1})
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", spec, err, want)
		}
	}
}

func TestParseEngine(t *testing.T) {
	if _, err := parseEngine("tl2"); err != nil {
		t.Error(err)
	}
	if _, err := parseEngine("norec"); err != nil {
		t.Error(err)
	}
	if _, err := parseEngine("quantum"); err == nil {
		t.Error("accepted unknown engine")
	}
}

func TestSpecBuild(t *testing.T) {
	w, rt, ctrl, err := StackSpec{Workload: "rbtree-ro", Policy: "rubic"}.Build("tl2", 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil || rt == nil || ctrl == nil {
		t.Fatal("incomplete stack")
	}
	if ctrl.Name() != "rubic" {
		t.Errorf("controller %q", ctrl.Name())
	}

	// greedy builds no controller: the caller pins the pool instead.
	_, _, ctrl, err = StackSpec{Workload: "bank", Policy: "greedy"}.Build("norec", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl != nil {
		t.Error("greedy built a controller")
	}

	for _, bad := range []StackSpec{
		{Workload: "nope", Policy: "rubic"},
		{Workload: "rbtree", Policy: "nope"},
	} {
		if _, _, _, err := bad.Build("tl2", 4, 1); err == nil {
			t.Errorf("built %+v", bad)
		}
	}
	if _, _, _, err := (StackSpec{Workload: "rbtree", Policy: "rubic"}).Build("quantum", 4, 1); err == nil {
		t.Error("built with unknown engine")
	}
}

// TestStackNames: one rule names every driver's stacks, and each logs in one
// directory directly under the root.
func TestStackNames(t *testing.T) {
	for spec, want := range map[string]string{
		"bank:rubic":                 "P3-bank-rubic",
		"rbtree-ro:greedy@2s":        "P3-rbtree-ro-greedy",
		"kv/qps=800/slo=5ms":         "P3-kv/poisson",
		"kv:ebs/qps=8/arrival=burst": "P3-kv/burst",
	} {
		specs, err := ParseSpecs(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := specs[0].Name(2); got != want {
			t.Errorf("%s: name %q, want %q", spec, got, want)
		}
	}
}

// FuzzStackSpec: the parser never panics; everything it accepts prints back
// to itself (the agent receives its stack as String); every stack it accepts
// gets exactly one log directory directly under the root, whatever it is
// called.
func FuzzStackSpec(f *testing.F) {
	for _, seed := range []string{
		"rbtree-ro:rubic@250ms", "bank:greedy", "kv/qps=800/slo=5ms",
		"bank:rubic/qps=200/arrival=diurnal", "shardedkv/qps=100/shards=4",
		"kv:rubic@1h2m3.5s/qps=1e-3/slo=1ns/theta=0.99/adaptive=tl2:backoff+norec:greedy",
		`..\..:x`, "a:b:c", "kv/qps=1,bank:ebs", "kv/qps=NaN",
	} {
		f.Add(seed)
	}
	root := filepath.Join("var", "wal")
	f.Fuzz(func(t *testing.T, in string) {
		specs, err := ParseSpecs(in)
		if err != nil {
			return
		}
		for i, s := range specs {
			again, err := ParseSpecs(s.String())
			if err != nil || len(again) != 1 || again[0] != s {
				t.Fatalf("%q: spec %+v prints as %q, which parses to %+v (err %v)", in, s, s.String(), again, err)
			}
			name := s.Name(i)
			dir := WalDir(root, name)
			if filepath.Dir(dir) != root || strings.ContainsRune(filepath.Base(dir), filepath.Separator) {
				t.Fatalf("%q: stack %q logs in %q, not one directory under %q", in, name, dir, root)
			}
		}
	})
}
