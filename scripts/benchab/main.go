// Command benchab runs the repository's end-to-end benchmark as alternating
// parent/change pairs and prints the comparison table a performance PR has
// to show (`make bench-ab PARENT=<rev>`).
//
// The parent revision is exported into a temporary directory and each side
// is built and run through its own bench/run.sh, so the two sides differ by
// exactly what the commits differ by — the instrument included, which is
// why a PR that claims a gain may not edit bench/. Every workload listed in
// BENCHMARK.json runs `pairs` times per side, the side that goes first
// alternating from pair to pair and both sides of a pair sharing a seed.
// For every end-to-end metric the table gives each side's quartiles, the
// change of the median, how many pairs the change won, and the failed
// operations; the exit status is 1 when a median is worse than the
// benchmark's bound for that metric, or any operation failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string
	Better string // "higher" or "lower"
	Bound  float64
}

// result is the last stdout line of one bench/run.sh run.
type result struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]struct{ Value float64 }
}

func main() {
	parent := flag.String("parent", "", "revision to compare the working tree against (required)")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	flag.Parse()
	if *parent == "" || *pairs < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchab -parent <rev> [-pairs 10] [-seconds 15]")
		os.Exit(2)
	}
	worse, err := compare(*parent, *pairs, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func compare(parentRev string, pairs int, seconds float64) (worse bool, err error) {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return false, fmt.Errorf("git rev-parse: %w", err)
	}
	change := strings.TrimSpace(string(out))
	raw, err := os.ReadFile(filepath.Join(change, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}

	parent, err := os.MkdirTemp("", "benchab-parent-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(parent)
	if err := export(change, parentRev, parent); err != nil {
		return false, err
	}
	sides := [2]string{parent, change} // index 0 parent, 1 change

	// One discarded short run per side builds it and fills its caches.
	for _, dir := range sides {
		if _, err := runOnce(dir, sp.Workloads[0].Name, 1, 0, true); err != nil {
			return false, err
		}
	}

	fmt.Printf("parent %s vs working tree, %d alternating pairs x %g s, quartiles q1 / median / q3\n\n", parentRev, pairs, seconds)
	fmt.Println("| workload | metric | parent | change | median change | pairs won | failed ops p/c |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, w := range sp.Workloads {
		var runs [2][]result
		for p := 0; p < pairs; p++ {
			seed := int64(101 + p)
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // even pairs run the parent first, odd ones the change
				r, err := runOnce(sides[side], w.Name, seed, seconds, false)
				if err != nil {
					return false, err
				}
				runs[side] = append(runs[side], r)
			}
			fmt.Fprintf(os.Stderr, "benchab: %s pair %d/%d done\n", w.Name, p+1, pairs)
		}
		var failed [2]uint64
		for side := range runs {
			for _, r := range runs[side] {
				failed[side] += r.Failed
				if !r.Correct && r.Failed == 0 {
					failed[side]++ // an incorrect run is a failure even if it counted none
				}
			}
		}
		if failed[1] > 0 {
			worse = true
		}
		for _, m := range sp.EndToEnd {
			var vals [2][]float64
			for side := range runs {
				for _, r := range runs[side] {
					vals[side] = append(vals[side], r.Metrics[m.Name].Value)
				}
			}
			pq1, pmed, pq3 := quartiles(vals[0])
			cq1, cmed, cq3 := quartiles(vals[1])
			won := 0
			for i := range vals[0] {
				if (m.Better == "higher" && vals[1][i] > vals[0][i]) || (m.Better == "lower" && vals[1][i] < vals[0][i]) {
					won++
				}
			}
			rel := (cmed - pmed) / pmed
			verdict := ""
			if (m.Better == "higher" && rel < -m.Bound) || (m.Better == "lower" && rel > m.Bound) {
				verdict = " WORSE THAN BOUND"
				worse = true
			}
			fmt.Printf("| %s | %s | %s / %s / %s (IQR %.1f%%) | %s / %s / %s | %+.1f%%%s | %d/%d | %d/%d |\n",
				w.Name, m.Name, sig(pq1), sig(pmed), sig(pq3), 100*(pq3-pq1)/pmed,
				sig(cq1), sig(cmed), sig(cq3), 100*rel, verdict, won, pairs, failed[0], failed[1])
		}
	}
	return worse, nil
}

// export unpacks rev of the repository at repo into dir.
func export(repo, rev, dir string) error {
	archive := exec.Command("git", "-C", repo, "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w: %s", rev, err, stderr.String())
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar: %w: %s", err, stderr.String())
	}
	return nil
}

// runOnce runs one untraced benchmark run of workload in the checkout at
// dir through its own bench/run.sh and parses the last stdout line.
func runOnce(dir, workload string, seed int64, seconds float64, short bool) (result, error) {
	args := []string{filepath.Join(dir, "bench", "run.sh"), "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--trace", "0"}
	if short {
		args = append(args, "--short")
	} else {
		args = append(args, "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	}
	cmd := exec.Command("bash", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	// Exit status 1 with a JSON line is a run that finished but failed its
	// own verification: that is a result to report, not a reason to stop.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, fmt.Errorf("%s in %s: %v: no result line: %s", workload, dir, err, stderr.String())
	}
	return r, nil
}

// quartiles is Python's statistics.quantiles(xs, n=4), the estimator the
// acceptance protocol and bench -aa use for the run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
