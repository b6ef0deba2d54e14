package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"rubic/internal/core"
	"rubic/internal/pool"
	"rubic/internal/stamp"
	"rubic/internal/stm"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestContractMatchesCode fails when BENCHMARK.json and the metric and
// workload tables in the code drift apart.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	check := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better(w.higher) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %s %s %s", kind, i, g, w.name, w.unit, better(w.higher))
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the allowed characters", kind, i, g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s[%d] %s: bound %v, code %v (must be in (0, 0.25])", kind, i, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", kind, i, g.Name)
			}
		}
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", c.RunSeconds, defaultSeconds)
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)

	var listed []workloadDef
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(c.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(c.Workloads), len(listed))
	}
	seen := map[string]bool{}
	for i, w := range listed {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, c.Workloads[i], w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		seen[w.name] = true
	}
	for _, m := range append(append([]contractMetric{}, c.EndToEnd...), c.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if w := findWorkload("kv-hot-2w"); w == nil || w.listed || !w.repro {
		t.Error("kv-hot-2w must exist and stay an unlisted repro until its verification passes")
	}
	if w := findWorkload("colocate-rbtree"); w == nil || w.repro {
		t.Error("colocate-rbtree must exist and run in the default suite")
	}
}

// smoke runs one workload in -short mode and returns its result line.
func smoke(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-short", "-workload", workload, "-seed", "7", "-trace", trace, "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	if !strings.Contains(stdout.String(), "verify=ok") {
		t.Errorf("%s trace=%s: no verify=ok in the report", workload, trace)
	}
	return res
}

func checkNames(t *testing.T, res result, want []contractMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not printed", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range res.Metrics {
		if !nameRE.MatchString(name) {
			t.Errorf("printed metric name %q has a character outside letters, digits, _ . -", name)
		}
	}
}

// TestSmoke runs every workload of the default suite end to end, and the
// traced run of the durable, the ordered and the co-located one, at
// GOMAXPROCS 1 and 2, and compares the printed names with BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; go test -short keeps the contract checks only")
	}
	c := readContract(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		for _, w := range workloads {
			if w.repro {
				continue
			}
			runtime.GOMAXPROCS(procs)
			res := smoke(t, w.name, "0")
			checkNames(t, res, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, v)
				}
			}
		}
		for _, name := range []string{"kv-write-durable", "colocate-rbtree", "ordered-mix"} {
			runtime.GOMAXPROCS(procs)
			checkNames(t, smoke(t, name, "1"), c.PerLayer)
		}
	}
}

// broken is a workload whose every call fails and whose verification
// reports a violation.
type broken struct{}

func (broken) Name() string           { return "broken" }
func (broken) Setup(*rand.Rand) error { return nil }
func (broken) Verify() error          { return errors.New("deliberate violation") }
func (broken) Task() pool.Task        { return func(int, *rand.Rand) bool { return false } }
func brokenStack(name string) stackDef {
	return stackDef{name: name, pool: 1, build: func() (stamp.Workload, *stm.Runtime, core.Controller, error) {
		return broken{}, stm.New(stm.Config{}), nil, nil
	}}
}

// TestFailuresAreCounted checks that false task returns and verification
// violations land in "failed" instead of aborting the run or vanishing.
func TestFailuresAreCounted(t *testing.T) {
	out, err := runClosedLoop([]stackDef{brokenStack("b1"), brokenStack("b2")}, false, loopConfig{
		seed: 1, warm: 50 * time.Millisecond, windows: 10, walDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted == 0 || out.completed != 0 {
		t.Errorf("attempted %d completed %d, want every call attempted and none completed", out.attempted, out.completed)
	}
	// Every call failed, and each of the two stacks adds one violation.
	if want := out.attempted + 2; out.failed != want {
		t.Errorf("failed = %d, want %d (attempted %d + 2 verification violations)", out.failed, want, out.attempted)
	}
	for _, so := range out.stacks {
		if so.verifyErr == nil {
			t.Errorf("stack %s: verification violation not recorded", so.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
