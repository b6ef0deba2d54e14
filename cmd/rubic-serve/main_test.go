package main

import (
	"errors"
	"flag"
	"io"
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
		procs:    "kv/qps=300",
		duration: 500 * time.Millisecond,
		epoch:    100 * time.Millisecond,
		queue:    load.DefaultQueueCap,
		quiet:    true,
		stack:    colocate.StackFlags{Engine: "tl2", Pool: 4, Seed: 7},
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
// ns_op slot and the companion quantiles as metrics — keyed by the stack's
// name, which carries the P1- prefix every other stack has.
func TestRunSingleEmitsBenchJSON(t *testing.T) {
	cfg := testConfig()
	cfg.procs = "kv/qps=300/slo=250ms"
	cfg.jsonOut = filepath.Join(t.TempDir(), "serve.json")
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	f, err := benchfmt.Load(cfg.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := f.Benchmarks["Serve/P1-kv/poisson"]
	if !ok || len(f.Benchmarks) != 1 {
		t.Fatalf("snapshot is not Serve/P1-kv/poisson alone: %v", f.Benchmarks)
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
	cfg.procs = "kv/qps=200/slo=250ms,kv/qps=200/slo=250ms"
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
	cfg.procs = "kv/qps=50/slo=250ms"
	cfg.duration = 200 * time.Millisecond
	var buf strings.Builder
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "max sustainable QPS") {
		t.Fatalf("no sweep verdict:\n%s", buf.String())
	}

	cfg.procs = "kv/qps=50/slo=1ns"
	if err := run(cfg, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "lower qps=") {
		t.Fatalf("unreachable SLO sweep err = %v, want starting-rate failure", err)
	}

	for _, procs := range []string{"kv/qps=50", "kv/qps=50/slo=1s,kv/qps=50/slo=1s"} {
		cfg.procs = procs
		if err := run(cfg, &strings.Builder{}); err == nil {
			t.Errorf("-find-max over %s accepted", procs)
		}
	}
}

// TestFlagSpecValidation: -procs takes the one stack grammar, and only
// open-loop stacks: a spec without qps= is refused by name, as is a key that
// does not apply.
func TestFlagSpecValidation(t *testing.T) {
	for _, procs := range []string{"kv:rubic", "kv/qps=100,bank:rubic", "kv/qps=0", "bank/qps=100/theta=0.5", "kv/qps=100/shards=3"} {
		cfg := testConfig()
		cfg.procs = procs
		if err := run(cfg, &strings.Builder{}); err == nil {
			t.Errorf("-procs %s accepted", procs)
		}
	}
	cfg := testConfig()
	cfg.procs = "kv:rubic"
	if err := run(cfg, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "kv:rubic has no qps=") {
		t.Errorf("closed-loop stack refused with %v, want it named", err)
	}
}

// TestRunStacksDurable: -durable end to end, twice over one -wal-dir — the
// second run recovers the first's logs. Serving-stack names contain a '/'
// ("P1-kv/poisson"); each still gets exactly one directory directly under
// -wal-dir, as in rubic-colocate and the process-mode supervisor.
func TestRunStacksDurable(t *testing.T) {
	cfg := testConfig()
	cfg.procs = "kv/qps=200,kv/qps=200"
	cfg.stack.Durable = colocate.DurableFlags{On: true, Root: t.TempDir(), Fsync: "os"}
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
	entries, err := os.ReadDir(cfg.stack.Durable.Root)
	if err != nil || len(entries) != 2 || entries[0].Name() != "P1-kv_poisson" || entries[1].Name() != "P2-kv_poisson" {
		t.Fatalf("log directories under -wal-dir: %v (err %v), want P1-kv_poisson and P2-kv_poisson", entries, err)
	}

	cfg.findMax = true
	if err := run(cfg, &buf); err == nil {
		t.Error("-find-max with -durable accepted")
	}
	cfg.findMax, cfg.stack.Durable.Root = false, ""
	if err := run(cfg, &buf); err == nil {
		t.Error("-durable without -wal-dir accepted")
	}
	cfg.stack.Durable.Root, cfg.stack.Durable.Fsync = t.TempDir(), "sometimes"
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
	specs, err := colocate.ParseSpecs("kv/qps=300,kv/qps=300")
	if err != nil {
		t.Fatal(err)
	}
	procs, err := buildStacks(cfg, specs)
	if err != nil {
		t.Fatal(err)
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

// TestFlags pins the command line: a stack is only its spec, so the
// single-stack flags are gone (their values are -procs keys), -workers is
// -pool, -stacks is -procs, and -algo/-pool/-seed/-durable are the group
// every stack driver shares.
func TestFlags(t *testing.T) {
	var cfg cliConfig
	fs := flag.NewFlagSet("rubic-serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs, &cfg)
	for _, gone := range []string{"-workload=kv", "-arrival=burst", "-qps=1", "-theta=0.5", "-slo-p99=1ms",
		"-policy=rubic", "-adaptive=tl2", "-workers=4", "-stacks=kv/qps=1"} {
		if err := fs.Parse([]string{gone}); err == nil {
			t.Errorf("%s accepted", gone)
		}
	}
	if err := fs.Parse([]string{"-procs=kv/qps=1", "-pool=3", "-algo=norec", "-seed=5", "-durable", "-wal-dir=w", "-fsync=os"}); err != nil {
		t.Fatal(err)
	}
	want := colocate.StackFlags{Engine: "norec", Pool: 3, Seed: 5, Durable: colocate.DurableFlags{On: true, Root: "w", Fsync: "os"}}
	if cfg.procs != "kv/qps=1" || cfg.stack != want {
		t.Fatalf("parsed %+v", cfg)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 14 {
		t.Errorf("%d flags, want 14", n)
	}
}
