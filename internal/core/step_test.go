package core

import (
	"math"
	"testing"
	"time"
)

// countingAdapter counts the rounds the adapter was driven for.
type countingAdapter struct{ epochs int }

func (a *countingAdapter) Epoch(Observation) { a.epochs++ }

// TestStepChain pins what the separate guard tests leave implicit: the stage
// order when both stages are installed, what a missed tick does with and
// without a health stage, and that every actuation publishes the base
// controller's state.
func TestStepChain(t *testing.T) {
	const (
		slo      = time.Millisecond
		fallback = 4
	)
	type outcome uint8
	const (
		decides  outcome = iota // the controller is advanced, its answer actuated
		holds                   // a stage claims the round: the last level again
		cuts                    // the SLO stage cuts through the controller's restore path
		degrades                // the health stage answers with the fallback
		skips                   // nothing advanced, actuated, published or adapted
	)
	type round struct {
		name   string
		o      Observation
		want   outcome
		slo    SLOState
		health HealthState
	}
	cases := []struct {
		name   string
		health bool
		script []round
	}{
		{"both_stages", true, []round{
			{"good epoch reaches the controller", Observation{Tput: 100, P99: slo / 10}, decides, Meeting, Healthy},
			{"objective before signal: a breach claims a garbage sample", Observation{Tput: math.NaN(), P99: 2 * slo}, holds, Breaching, Healthy},
			{"second breach cuts, health ladder still untouched", Observation{Tput: math.NaN(), P99: 2 * slo}, cuts, Breaching, Healthy},
			{"meeting epoch, garbage sample: held at the cut, not the level before it", Observation{Tput: math.NaN(), P99: slo / 10}, holds, Meeting, Holding},
			{"missed tick carries no latency: SLO stage not consulted", Observation{Missed: true, P99: 2 * slo}, holds, Meeting, Holding},
			{"third bad tick degrades", Observation{Tput: 0}, degrades, Meeting, Degraded},
			{"good sample hands the round back", Observation{Tput: 200, P99: slo / 10}, decides, Meeting, Healthy},
		}},
		{"no_health_stage", false, []round{
			{"good epoch reaches the controller", Observation{Tput: 100, P99: slo / 10}, decides, Meeting, Healthy},
			{"missed tick skips the round", Observation{Missed: true}, skips, Meeting, Healthy},
			{"and the next sample is judged against the one before it", Observation{Tput: 50, P99: slo / 10}, decides, Meeting, Healthy},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RUBICConfig{MaxLevel: 16, InitialLevel: 10}
			inner, twin := NewRUBIC(cfg), NewRUBIC(cfg)
			var health *HealthGuard
			if tc.health {
				health = NewHealthGuard(HealthPolicy{DegradeAfter: 3, FallbackLevel: fallback})
			}
			tuner, guard := sloTuner(t, inner, SLOPolicy{TargetP99: slo, BreachAfter: 2, Alpha: 0.5})
			tuner.Health = health
			adapter := &countingAdapter{}
			tuner.Adapter = adapter
			target := tuner.Target.(*fakeTarget)

			if _, ok := tuner.TuningState(); ok {
				t.Fatal("state published before any actuation")
			}
			last := tuner.Hold()
			if pub, ok := tuner.TuningState(); last != 10 || target.setCalls.Load() != 1 || !ok || pub != inner.ExportState() {
				t.Fatalf("Hold: level %d, %d actuations, published %+v (ok=%v)", last, target.setCalls.Load(), pub, ok)
			}
			for _, r := range tc.script {
				before, calls, epochs := inner.ExportState(), target.setCalls.Load(), adapter.epochs
				pubBefore, _ := tuner.TuningState()
				got := tuner.Step(r.o)

				want, actuated, adapted := last, int32(1), 1
				switch r.want {
				case decides:
					want = twin.Next(r.o.Tput)
				case cuts:
					want = last / 2
					twin.RestoreState(TuningState{Level: float64(want), WMax: float64(last)})
				case degrades:
					want = fallback
				case skips:
					actuated = 0
				}
				if r.o.Missed {
					adapted = 0
				}
				if got != want {
					t.Fatalf("%s: level %d, want %d", r.name, got, want)
				}
				if inner.ExportState() != twin.ExportState() {
					t.Fatalf("%s: controller at %+v, want %+v (was %+v)", r.name, inner.ExportState(), twin.ExportState(), before)
				}
				if d := target.setCalls.Load() - calls; d != actuated {
					t.Fatalf("%s: %d actuations, want %d", r.name, d, actuated)
				}
				if actuated == 1 && int(target.level.Load()) != want {
					t.Fatalf("%s: target at %d, want %d", r.name, target.level.Load(), want)
				}
				if d := adapter.epochs - epochs; d != adapted {
					t.Fatalf("%s: adapter driven %d times, want %d", r.name, d, adapted)
				}
				wantPub := inner.ExportState()
				if r.want == skips {
					wantPub = pubBefore
				}
				if pub, _ := tuner.TuningState(); pub != wantPub {
					t.Fatalf("%s: published %+v, want %+v", r.name, pub, wantPub)
				}
				if guard.State() != r.slo {
					t.Fatalf("%s: SLO posture %v, want %v", r.name, guard.State(), r.slo)
				}
				if health != nil && health.State() != r.health {
					t.Fatalf("%s: health %v, want %v", r.name, health.State(), r.health)
				}
				last = got
			}
			if tc.health {
				if st := guard.Stats(); st != (SLOStats{Breaches: 2, Cuts: 1, Recoveries: 1}) {
					t.Fatalf("SLO stats %+v", st)
				}
				if st := health.Stats(); st != (HealthStats{Held: 2, Degradations: 1, Recoveries: 1}) {
					t.Fatalf("health stats %+v", st)
				}
			}
		})
	}
}
