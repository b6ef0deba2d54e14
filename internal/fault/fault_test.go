package fault

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for i := 0; i < 100; i++ {
		if in.Fire(WorkerPanic) {
			t.Fatal("nil injector fired")
		}
	}
	if in.Schedule() != nil || in.Fired() != 0 {
		t.Fatal("nil injector recorded firings")
	}
}

func TestNilInjectorZeroAllocs(t *testing.T) {
	var in *Injector
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Fire(TickDrop) {
			t.Fatal("fired")
		}
	})
	if allocs != 0 {
		t.Fatalf("inert Fire allocates %v per op, want 0", allocs)
	}
}

func TestFireMatchesSchedule(t *testing.T) {
	in := New(&Plan{Seed: 7, Events: []Event{
		{Point: WorkerPanic, From: 2, Count: 3},
		{Point: TickDrop, From: 0},
	}})
	var fired []int
	for occ := 0; occ < 8; occ++ {
		if in.Fire(WorkerPanic) {
			fired = append(fired, occ)
		}
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("panic occurrences %v, want %v", fired, want)
	}
	if !in.Fire(TickDrop) {
		t.Fatal("tickdrop occurrence 0 did not fire")
	}
	if in.Fire(TickDrop) {
		t.Fatal("tickdrop occurrence 1 fired")
	}
	if got := in.Fired(); got != 4 {
		t.Fatalf("fired count %d, want 4", got)
	}
}

// TestScheduleDeterministic pins the determinism contract: two injectors
// built from the same plan and driven through the same per-point occurrence
// counts — even from racing goroutines — log identical schedules.
func TestScheduleDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, Events: []Event{
		{Point: WorkerPanic, From: 10, Count: 5},
		{Point: WorkerStall, From: 3, Count: 2},
	}}
	drive := func() []Firing {
		in := New(plan)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					in.Fire(WorkerPanic)
					in.Fire(WorkerStall)
				}
			}()
		}
		wg.Wait()
		return in.Schedule()
	}
	a, b := drive(), drive()
	key := func(fs []Firing) map[Firing]bool {
		m := map[Firing]bool{}
		for _, f := range fs {
			m[f] = true
		}
		return m
	}
	if len(a) != 7 || !reflect.DeepEqual(key(a), key(b)) {
		t.Fatalf("schedules differ: %v vs %v", a, b)
	}
}

func TestPayloadDeterministic(t *testing.T) {
	a := New(&Plan{Seed: 5})
	b := New(&Plan{Seed: 5})
	if a.Payload(TelemetryCorrupt, 3) != b.Payload(TelemetryCorrupt, 3) {
		t.Fatal("same seed/point/occurrence produced different payloads")
	}
	if a.Payload(TelemetryCorrupt, 3) == a.Payload(TelemetryCorrupt, 4) {
		t.Fatal("adjacent occurrences share a payload")
	}
	if a.Payload(TelemetryCorrupt, 3) == a.Payload(TelemetryTruncate, 3) {
		t.Fatal("distinct points share a payload")
	}
}

func TestParseScenario(t *testing.T) {
	name, seed, err := ParseScenario("crashloop@42")
	if err != nil || name != ScenarioCrashLoop || seed != 42 {
		t.Fatalf("got %q %d %v", name, seed, err)
	}
	name, seed, err = ParseScenario("mixed")
	if err != nil || name != ScenarioMixed || seed != 1 {
		t.Fatalf("default seed: got %q %d %v", name, seed, err)
	}
	for _, bad := range []string{"nope@1", "crashloop@x", "", "@3"} {
		if _, _, err := ParseScenario(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestPlanForDeterministicAndDistinct: the same (scenario, seed, child,
// incarnation) always yields the same plan; different children get different
// schedules; crashloop stops crashing from incarnation 2 on.
func TestPlanForDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		a, err := PlanFor(sc, 9, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		b, _ := PlanFor(sc, 9, 0, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same inputs, different plans", sc)
		}
		if len(a.Events) == 0 && sc != ScenarioCorrupt && sc != ScenarioCrashLoop {
			t.Errorf("%s: empty plan on incarnation 0", sc)
		}
	}
	c0, _ := PlanFor(ScenarioCrashLoop, 9, 0, 0)
	c1, _ := PlanFor(ScenarioCrashLoop, 9, 1, 0)
	if reflect.DeepEqual(c0, c1) {
		t.Error("children 0 and 1 share a crashloop plan")
	}
	healed, _ := PlanFor(ScenarioCrashLoop, 9, 0, 2)
	if len(healed.Events) != 0 {
		t.Errorf("crashloop incarnation 2 still crashes: %+v", healed.Events)
	}
	if _, err := PlanFor("nope", 1, 0, 0); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestPlanForTotal: PlanFor is a pure function of its inputs over the whole
// of them — out-of-range child and incarnation numbers included — so it
// never panics, never schedules an event before occurrence 0, and gives
// equal plans for equal inputs.
func TestPlanForTotal(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, child := range []int{-1, 0, 1, math.MaxInt} {
			for _, inc := range []int{-1, 0, 1, 2, math.MaxInt} {
				for _, seed := range []int64{0, 7, math.MinInt64} {
					p, err := PlanFor(sc, seed, child, inc)
					if err != nil {
						t.Fatalf("PlanFor(%s, %d, %d, %d): %v", sc, seed, child, inc, err)
					}
					for _, e := range p.Events {
						if e.From < 0 {
							t.Errorf("PlanFor(%s, %d, %d, %d): %v fires from %d", sc, seed, child, inc, e.Point, e.From)
						}
					}
					if q, _ := PlanFor(sc, seed, child, inc); !reflect.DeepEqual(p, q) {
						t.Errorf("PlanFor(%s, %d, %d, %d): equal inputs, different plans", sc, seed, child, inc)
					}
				}
			}
		}
	}
}
