package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rubic/internal/benchfmt"
	"rubic/internal/colocate"
	"rubic/internal/load"
	"rubic/internal/stamp"
	"rubic/internal/wal"
)

// testConfig mirrors the flag defaults scaled down for test time.
func testConfig() cliConfig {
	return cliConfig{
		workload: "kv",
		arrival:  "poisson",
		qps:      300,
		theta:    load.DefaultTheta,
		duration: 500 * time.Millisecond,
		epoch:    100 * time.Millisecond,
		workers:  4,
		queue:    load.DefaultQueueCap,
		engine:   "tl2",
		seed:     7,
		quiet:    true,
	}
}

// TestRunSmoke is the CI gate run in-process: the fixed-seed smoke must
// pass and say so.
func TestRunSmoke(t *testing.T) {
	cfg := testConfig()
	cfg.smoke = true
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "serve-smoke: PASS") {
		t.Fatalf("no PASS line in output:\n%s", buf.String())
	}
}

// TestRunSingleEmitsBenchJSON: a single-stack run with -json must produce a
// rubic-bench/v2 snapshot rubic-benchgate can load, with the p99 in the
// ns_op slot and the companion quantiles as metrics.
func TestRunSingleEmitsBenchJSON(t *testing.T) {
	cfg := testConfig()
	cfg.sloP99 = 250 * time.Millisecond
	cfg.jsonOut = filepath.Join(t.TempDir(), "serve.json")
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	f, err := benchfmt.Load(cfg.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := f.Benchmarks["Serve/kv/poisson"]
	if !ok {
		t.Fatalf("snapshot missing Serve/kv/poisson: %v", f.Benchmarks)
	}
	if entry.NsPerOp <= 0 || entry.Iters == 0 || entry.Procs != runtime.GOMAXPROCS(0) {
		t.Fatalf("entry = %+v", entry)
	}
	for _, m := range []string{"p50-ns", "p999-ns", "qps", "mean-level"} {
		if _, ok := entry.Metrics[m]; !ok {
			t.Errorf("metric %s missing: %v", m, entry.Metrics)
		}
	}
	if entry.Metrics["p999-ns"] < entry.NsPerOp {
		t.Errorf("p999 %v below p99 %v", entry.Metrics["p999-ns"], entry.NsPerOp)
	}
}

// TestRunStacks: two co-located stacks with different SLOs both report.
func TestRunStacks(t *testing.T) {
	cfg := testConfig()
	cfg.stacks = "kv/qps=200/slo=250ms,kv/qps=200/slo=250ms"
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	for _, name := range []string{"P1-kv/poisson", "P2-kv/poisson"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("summary missing stack %s:\n%s", name, buf.String())
		}
	}
}

// TestRunFindMax covers the sweep's two terminal branches: a generous SLO
// exhausts the doubling ramp, an unreachable one fails on the first probe.
func TestRunFindMax(t *testing.T) {
	cfg := testConfig()
	cfg.findMax = true
	cfg.qps = 50
	cfg.duration = 200 * time.Millisecond
	cfg.sloP99 = 250 * time.Millisecond
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "max sustainable QPS") {
		t.Fatalf("no sweep verdict:\n%s", buf.String())
	}

	cfg.sloP99 = time.Nanosecond
	if err := run(cfg, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "lower -qps") {
		t.Fatalf("unreachable SLO sweep err = %v, want starting-rate failure", err)
	}

	cfg.sloP99 = 0
	if err := run(cfg, &strings.Builder{}); err == nil {
		t.Fatal("-find-max without -slo-p99 accepted")
	}
}

func TestFlagSpecValidation(t *testing.T) {
	cfg := testConfig()
	cfg.qps = 0
	if _, err := flagSpec(cfg); err == nil {
		t.Fatal("qps 0 accepted")
	}
	cfg = testConfig()
	cfg.policy = "slo"
	if _, err := flagSpec(cfg); err == nil {
		t.Fatal("policy slo without a target accepted")
	}
	cfg = testConfig()
	spec, err := flagSpec(cfg)
	if err != nil || spec.Policy != "fixed" {
		t.Fatalf("spec %+v err %v, want fixed default policy", spec, err)
	}
	cfg.sloP99 = time.Millisecond
	spec, err = flagSpec(cfg)
	if err != nil || spec.Policy != "slo" {
		t.Fatalf("spec %+v err %v, want slo default policy with a target", spec, err)
	}
}

// TestRunStacksDurable: -durable end to end, twice over one -wal-dir — the
// second run recovers the first's logs. Serving-stack names contain a '/'
// ("P1-kv/poisson"); each still gets exactly one directory directly under
// -wal-dir, as in rubic-colocate and the process-mode supervisor.
func TestRunStacksDurable(t *testing.T) {
	cfg := testConfig()
	cfg.stacks = "kv/qps=200,kv/qps=200"
	cfg.durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
	var buf strings.Builder
	for i := 0; i < 2; i++ {
		buf.Reset()
		if err := run(cfg, &buf); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "P2-kv/poisson: wal acked") || strings.Contains(buf.String(), "recovered prefix 0,") {
		t.Errorf("second run did not report recovered logs:\n%s", buf.String())
	}
	entries, err := os.ReadDir(cfg.durable.Root)
	if err != nil || len(entries) != 2 || entries[0].Name() != "P1-kv_poisson" || entries[1].Name() != "P2-kv_poisson" {
		t.Fatalf("log directories under -wal-dir: %v (err %v), want P1-kv_poisson and P2-kv_poisson", entries, err)
	}

	cfg.findMax = true
	if err := run(cfg, &buf); err == nil {
		t.Error("-find-max with -durable accepted")
	}
	cfg.findMax, cfg.durable.Root = false, ""
	if err := run(cfg, &buf); err == nil {
		t.Error("-durable without -wal-dir accepted")
	}
	cfg.durable.Root, cfg.durable.Fsync = t.TempDir(), "sometimes"
	if err := run(cfg, &buf); err == nil {
		t.Error("unknown -fsync policy accepted")
	}
}

// failsVerify serves as the workload it wraps and then fails its audit.
type failsVerify struct{ stamp.Workload }

func (failsVerify) Verify() error { return errors.New("audit failed") }

// TestServePrintsResultsBesideAnError: Group.Run returns every finished
// stack's result beside a verification error; the summary table and the log
// outcomes are printed first and the error returned after.
func TestServePrintsResultsBesideAnError(t *testing.T) {
	cfg := testConfig()
	spec, err := flagSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var procs []colocate.Proc
	for _, prefix := range []string{"P1-", "P2-"} {
		proc, err := buildProc(cfg, spec, cfg.seed, prefix)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, proc)
	}
	procs[0].Durable = &wal.Options{Dir: t.TempDir(), Policy: wal.FsyncOS}
	procs[1].Workload = failsVerify{procs[1].Workload}
	var out strings.Builder
	_, err = serve(cfg, &out, procs)
	if err == nil || !strings.Contains(err.Error(), "P2-kv/poisson verification") {
		t.Fatalf("err = %v, want the second stack's verification failure", err)
	}
	for _, want := range []string{"arrived", "P1-kv/poisson ", "P2-kv/poisson ", "P1-kv/poisson: wal acked"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
