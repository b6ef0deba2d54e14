package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: every listed workload runs 2×N times as fresh
// processes of this same binary, alternating between set A and set B, each
// run with its own seed. Two sets of the same code must agree: per workload
// and end-to-end metric it prints both medians, both quartile ranges (as a
// share of the median), the gap between the medians and the bound. It
// fails when a gap exceeds its bound, or a quartile range does (setup_s
// excepted) — the acceptance protocol's two rules.
func runAA(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	readEnvironment(o).print(stdout, "before")
	type sets [2]map[string][]float64
	all := map[string]*sets{}
	failedRuns := 0
	seed := o.seed
	for i := 0; i < o.aa; i++ {
		for _, def := range workloads {
			if !def.listed {
				continue
			}
			if all[def.name] == nil {
				all[def.name] = &sets{map[string][]float64{}, map[string][]float64{}}
			}
			for set := 0; set < 2; set++ {
				args := []string{
					"-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-out", o.outDir,
				}
				if o.walDir != "" {
					args = append(args, "-waldir", o.walDir)
				}
				seed++
				res, err := runSelf(self, args, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: -aa %s: %v\n", def.name, err)
					return 1
				}
				if !res.Correct {
					failedRuns++
				}
				for name, m := range res.Metrics {
					all[def.name][set][name] = append(all[def.name][set][name], m.Value)
				}
				fmt.Fprintf(stdout, "aa round %d/%d %s set %c: throughput_ops_s %.6g failed %d\n",
					i+1, o.aa, def.name, 'A'+set, res.Metrics["throughput_ops_s"].Value, res.Failed)
			}
		}
	}

	over := 0
	fmt.Fprintf(stdout, "\nA/A agreement, %d runs per set, %.0f s measured per run, load average after: %.2f\n", o.aa, o.seconds, loadAverage())
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | IQR A | IQR B | gap | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, def := range workloads {
		if !def.listed {
			continue
		}
		for _, m := range endToEnd {
			a, b := all[def.name][0][m.name], all[def.name][1][m.name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			gap, spread := math.Abs(bm-am)/am, math.Max((a3-a1)/am, (b3-b1)/bm)
			flag := ""
			if gap > m.bound || (spread > m.bound && m.name != "setup_s") {
				flag = " OVER"
				over++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.6g | %.1f%% | %.1f%% | %.1f%% | %.0f%%%s |\n",
				def.name, m.name, am, bm, 100*(a3-a1)/am, 100*(b3-b1)/bm, 100*gap, 100*m.bound, flag)
		}
	}
	if failedRuns > 0 {
		fmt.Fprintf(stderr, "bench: -aa: %d runs reported failures\n", failedRuns)
		return 1
	}
	if over > 0 {
		fmt.Fprintf(stderr, "bench: -aa: %d gaps or quartile ranges over their bound\n", over)
		return 1
	}
	return 0
}

// runSelf runs one benchmark process and decodes its last stdout line.
func runSelf(self string, args []string, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
