package colocate

import (
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	s, err := parseSpec("rbtree-ro:rubic@250ms")
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload != "rbtree-ro" || s.Policy != "rubic" || s.ArrivalDelay != 250*time.Millisecond {
		t.Fatalf("parsed %+v", s)
	}
	s, err = parseSpec("bank:greedy")
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload != "bank" || s.Policy != "greedy" || s.ArrivalDelay != 0 {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{"", "rbtree", "rbtree:", ":rubic", "a:b:c", "rbtree:rubic@x"} {
		if _, err := parseSpec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("rbtree-ro:rubic,bank:ebs@1s")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[1].ArrivalDelay != time.Second {
		t.Fatalf("parsed %+v", specs)
	}
	if _, err := ParseSpecs("rbtree-ro:rubic,broken"); err == nil {
		t.Error("accepted list with a broken member")
	}
}

func TestParseEngine(t *testing.T) {
	if _, err := ParseEngine("tl2"); err != nil {
		t.Error(err)
	}
	if _, err := ParseEngine("norec"); err != nil {
		t.Error(err)
	}
	if _, err := ParseEngine("quantum"); err == nil {
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
