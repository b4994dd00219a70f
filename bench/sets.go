package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// resultSet is what `-o` writes and `-compare` reads: every run of one
// sitting, with the host it was taken on.
type resultSet struct {
	Host    host        `json:"host"`
	Commit  string      `json:"commit"`
	Seconds float64     `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

// runResult is one run's result line plus what identifies the run.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

// runChild runs one workload in a child process of this binary, echoes its
// metric listing prefixed with the workload, and parses the result line. A
// non-zero exit with a result line still returns the result.
func runChild(self string, cfg config) (*runResult, error) {
	args := []string{
		"--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(btoi(cfg.trace)),
	}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Printf("%s seed=%d %s\n", cfg.workload, cfg.seed, last)
		}
		last = sc.Text()
	}
	res := &runResult{Workload: cfg.workload, Seed: cfg.seed, Trace: btoi(cfg.trace)}
	if err := json.Unmarshal([]byte(last), &res.resultLine); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	fmt.Printf("%s seed=%d correct=%v attempted=%d failed=%d\n", cfg.workload, cfg.seed, res.Correct, res.Attempted, res.Failed)
	return res, runErr
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over the untraced (end-to-end)
// or traced (per-layer) runs of a set.
func (s *resultSet) values(workload, metric string, trace int) []float64 {
	var xs []float64
	for _, run := range s.Runs {
		if run.Workload != workload || run.Trace != trace {
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict is compare's judgement of one (metric, workload) pair.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge applies the benchmark's rule to the values of one end-to-end metric
// in a base set a and a candidate set b. worse is how much worse b's median
// is than a's, as a share of a's (negative: better). The pair is regressed
// when worse exceeds the bound. It is unresolved, not ok, when either set's
// own spread is wider than the bound — unless every run of b reads better
// than every run of a, which no spread can explain away.
func judge(m metricSpec, a, b []float64) (medA, medB, worse, spreadMax float64, v verdict) {
	medA, medB = medianOf(a), medianOf(b)
	if medA != 0 {
		worse = (medB - medA) / math.Abs(medA)
	}
	lower := m.Better != "higher"
	if !lower {
		worse = -worse
	}
	sa, _ := spread(a)
	sb, _ := spread(b)
	spreadMax = math.Max(sa, sb)
	switch {
	case worse > m.Bound:
		v = regressed
	case spreadMax > m.Bound && !allBetter(a, b, lower):
		v = unresolved
	default:
		v = ok
	}
	return
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, lower bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	minA, maxA := a[0], a[0]
	for _, x := range a {
		minA, maxA = math.Min(minA, x), math.Max(maxA, x)
	}
	for _, x := range b {
		if lower && x >= minA || !lower && x <= maxA {
			return false
		}
	}
	return true
}

// compareSets prints, per (metric, workload), both medians, the relative
// difference, the bound and the verdict, then the program-made counts of the
// traced runs that differ between the sets. It returns the process exit
// code: 1 when any pair regressed or failed operations rose.
func compareSets(w io.Writer, spec *benchSpec, pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		fatal(err)
	}
	status := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name, 0), b.values(wl.Name, m.Name, 0)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			medA, medB, worse, sp, v := judge(m, xa, xb)
			if v == regressed {
				status = 1
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, medA, medB, 100*worse, 100*m.Bound, 100*sp, v)
		}
		fa, fb := failures(a, wl.Name), failures(b, wl.Name)
		v := ok
		if fb > fa {
			v, status = regressed, 1
		}
		fmt.Fprintf(w, "%-20s %-18s %14d %14d  %s\n", wl.Name, "failed", fa, fb, v)
	}
	// Counts made by the program repeat exactly on the same seed; list the
	// ones that do not, so a changed op mix is seen even when times hold.
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			if m.Unit != "count" && !strings.HasPrefix(m.Unit, "sim_") {
				continue
			}
			xa, xb := a.values(wl.Name, m.Name, 1), b.values(wl.Name, m.Name, 1)
			if len(xa) == 0 || len(xb) == 0 || medianOf(xa) == medianOf(xb) {
				continue
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g  changed\n", wl.Name, m.Name, medianOf(xa), medianOf(xb))
		}
	}
	return status
}

func failures(s *resultSet, workload string) int {
	n := 0
	for _, run := range s.Runs {
		if run.Workload == workload {
			n += run.Failed
		}
	}
	return n
}
