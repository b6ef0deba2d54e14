// Command rubic-benchgate turns `go test -bench -benchmem` output into the
// repo's BENCH_<date>.json format (schema rubic-bench/v2, shared with
// cmd/rubic-serve through internal/benchfmt: the GOMAXPROCS suffix stays in
// the benchmark key and each entry records its procs, so a scaling sweep
// yields one comparable entry per parallelism level) and gates pull requests
// against a checked-in baseline. Because keys carry the parallelism, gate
// runs must pin GOMAXPROCS to the value the baseline was recorded at (the
// Makefile's benchgate target pins 1; CI's parallel smoke pins 2).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/stm/... |
//	    rubic-benchgate -emit "BENCH_$(date +%F).json" -compare BENCH_baseline.json
//
// Flags:
//
//	-emit FILE      write the parsed results as JSON to FILE
//	-compare FILE   gate the parsed results against the baseline in FILE
//	-candidate FILE gate the results in this snapshot JSON instead of
//	                parsing stdin (how rubic-serve -json output — p99 ns
//	                in the ns_op slot — is gated against a latency baseline)
//	-time-tol F     fail when ns/op exceeds baseline*F (default 3.0; the
//	                wide default tolerates CI hardware variance and still
//	                catches catastrophic regressions)
//	-alloc-slack F  fail when allocs/op exceeds baseline+F (default 0.5,
//	                i.e. any whole extra allocation per op fails)
//	-allow-missing  do not fail when a baseline benchmark is absent from
//	                the new results (coverage rot is an error by default)
//
// Benchmarks present in the results but absent from the baseline do not
// fail the gate — a new benchmark cannot have a baseline yet — but they are
// listed on stdout as UNGATED so they cannot dodge the gate unnoticed: the
// fix is to refresh the baseline with -emit.
//
// Exit status: 0 clean, 1 regression or missing coverage, 2 usage or
// parse failure.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"rubic/internal/benchfmt"
)

// Result and File are the shared snapshot schema; the aliases keep this
// package's parser and gate reading naturally.
type (
	Result = benchfmt.Result
	File   = benchfmt.File
)

const (
	schemaID   = benchfmt.SchemaID
	schemaIDv1 = benchfmt.SchemaIDv1
)

func loadFile(path string) (*File, error)                   { return benchfmt.Load(path) }
func emitFile(path string, results map[string]Result) error { return benchfmt.Emit(path, results) }

// gomaxprocsSuffix matches the -N procs suffix the testing package appends
// to benchmark names when GOMAXPROCS != 1. It is parsed into Result.Procs
// and retained in the key, so a scaling sweep at several GOMAXPROCS values
// yields distinct, comparable entries instead of silently overwriting one.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench reads `go test -bench` output and collects per-benchmark
// results. Unrecognized lines (package headers, PASS, custom test output)
// are skipped. A benchmark appearing more than once (e.g. several packages
// or -count > 1) keeps the run with the lowest ns/op, the standard
// best-of-N noise reduction.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iters: iters}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
				seen = true
			case "B/op":
				res.BPerOp = val
			case "allocs/op":
				res.AllocsOp = val
			case "MB/s":
				// throughput column; derivable from ns/op, skip
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = val
			}
		}
		if !seen {
			continue
		}
		name := fields[0]
		res.Procs = 1
		if m := gomaxprocsSuffix.FindStringSubmatch(name); m != nil {
			if p, err := strconv.Atoi(m[1]); err == nil {
				res.Procs = p
			}
		}
		if prev, ok := out[name]; ok && prev.NsPerOp <= res.NsPerOp {
			continue
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return out, nil
}

// regression describes one gate violation.
type regression struct {
	name string
	what string
}

// compare gates new results against a baseline. Time regressions use a
// multiplicative tolerance, allocation regressions an additive slack
// (allocs/op is hardware-independent, so the gate is tight). Benchmarks in
// the baseline but absent from the new results are reported unless
// allowMissing; new benchmarks without a baseline entry pass (see ungated).
func compare(base, cur map[string]Result, timeTol, allocSlack float64, allowMissing bool) []regression {
	var regs []regression
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			if !allowMissing {
				regs = append(regs, regression{name, "present in baseline but missing from results"})
			}
			continue
		}
		if c.AllocsOp > b.AllocsOp+allocSlack {
			regs = append(regs, regression{name, fmt.Sprintf(
				"allocs/op %.2f exceeds baseline %.2f (+%.2f slack)", c.AllocsOp, b.AllocsOp, allocSlack)})
		}
		if timeTol > 0 && b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*timeTol {
			regs = append(regs, regression{name, fmt.Sprintf(
				"ns/op %.1f exceeds baseline %.1f × %.2f tolerance", c.NsPerOp, b.NsPerOp, timeTol)})
		}
	}
	return regs
}

// ungated lists benchmarks present in the results but absent from the
// baseline, sorted. They cannot fail the gate — there is nothing to compare
// against — which is exactly why they must be surfaced: a renamed or newly
// added benchmark otherwise runs forever without a regression bound.
func ungated(base, cur map[string]Result) []string {
	var names []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		emit         = flag.String("emit", "", "write parsed results as JSON to this file")
		compareWith  = flag.String("compare", "", "gate results against this baseline JSON")
		candidate    = flag.String("candidate", "", "read results from this snapshot JSON instead of stdin")
		timeTol      = flag.Float64("time-tol", 3.0, "ns/op failure multiplier over baseline (0 disables)")
		allocSlack   = flag.Float64("alloc-slack", 0.5, "allocs/op failure slack over baseline")
		allowMissing = flag.Bool("allow-missing", false, "tolerate baseline benchmarks absent from results")
	)
	flag.Parse()
	if *emit == "" && *compareWith == "" {
		fmt.Fprintln(os.Stderr, "rubic-benchgate: need -emit and/or -compare")
		flag.Usage()
		os.Exit(2)
	}

	var results map[string]Result
	if *candidate != "" {
		f, err := loadFile(*candidate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubic-benchgate:", err)
			os.Exit(2)
		}
		results = f.Benchmarks
		fmt.Printf("rubic-benchgate: loaded %d benchmarks from %s\n", len(results), *candidate)
	} else {
		var err error
		results, err = parseBench(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubic-benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("rubic-benchgate: parsed %d benchmarks\n", len(results))
	}

	if *emit != "" {
		if err := emitFile(*emit, results); err != nil {
			fmt.Fprintln(os.Stderr, "rubic-benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("rubic-benchgate: wrote %s\n", *emit)
	}

	if *compareWith != "" {
		base, err := loadFile(*compareWith)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rubic-benchgate:", err)
			os.Exit(2)
		}
		regs := compare(base.Benchmarks, results, *timeTol, *allocSlack, *allowMissing)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "rubic-benchgate: REGRESSION %s: %s\n", r.name, r.what)
			}
			os.Exit(1)
		}
		for _, name := range ungated(base.Benchmarks, results) {
			fmt.Printf("rubic-benchgate: UNGATED %s: not in baseline, refresh it with -emit\n", name)
		}
		fmt.Printf("rubic-benchgate: %d benchmarks within tolerance of %s\n", len(base.Benchmarks), *compareWith)
	}
}
