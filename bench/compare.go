package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports loads the timed runs of a -record file by workload.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// sample is one metric's values over the runs of one side.
type sample struct {
	sorted         []float64
	median, spread float64 // spread = (Q3-Q1)/median
}

func newSample(vs []float64) sample {
	s := sample{sorted: append([]float64(nil), vs...)}
	sort.Float64s(s.sorted)
	s.median = quantile(s.sorted, 0.5)
	if q1, q3, ok := quartiles(s.sorted); ok && s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// quartiles are Python's statistics.quantiles(values, n=4) first and
// third cut points (the exclusive method), which the driver uses.
func quartiles(sorted []float64) (q1, q3 float64, ok bool) {
	n := len(sorted)
	if n < 2 {
		return 0, 0, false
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// verdict judges side b against base a for a metric where lower is
// better: worse when b's median exceeds a's by more than bound,
// unresolved when either side's spread is wider than the bound or, with
// a single run, unknown (unless every run of b beats every run of a),
// else within bound.
func verdict(a, b sample, bound float64) string {
	if a.spread > bound || b.spread > bound || len(a.sorted) < 2 || len(b.sorted) < 2 {
		if b.sorted[len(b.sorted)-1] < a.sorted[0] {
			return "within bound"
		}
		return "unresolved"
	}
	if b.median > a.median*(1+bound) {
		return "worse"
	}
	return "within bound"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// b/a with its base, both spreads and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base a = %s, b = %s; every metric is lower-is-better\n", pathA, pathB)
	fmt.Fprintf(w, "%-17s %-9s %5s %12s %12s %18s %9s %9s %6s  %s\n",
		"workload", "metric", "runs", "a median", "b median", "b/a (base a)", "a spread", "b spread", "bound", "verdict")
	for _, name := range workloadNames() {
		ra, rb := a[name], b[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		values := func(rs []report, metric string) []float64 {
			var vs []float64
			for _, r := range rs {
				vs = append(vs, r.Metrics[metric])
			}
			return vs
		}
		for _, d := range endToEnd {
			sa, sb := newSample(values(ra, d.Name)), newSample(values(rb, d.Name))
			fmt.Fprintf(w, "%-17s %-9s %2d/%-2d %12.6g %12.6g %8.4f of %-8.6g %8.2f%% %8.2f%% %5.0f%%  %s\n",
				name, d.Name, len(ra), len(rb), sa.median, sb.median, sb.median/sa.median, sa.median,
				100*sa.spread, 100*sb.spread, 100*d.Bound, verdict(sa, sb, d.Bound))
		}
		for _, check := range []struct {
			what string
			get  func(report) string
		}{
			{"output_sha256", func(r report) string { return r.OutputSHA256 }},
			{"ops", func(r report) string { return fmt.Sprint(r.Ops) }},
			{"ops_failed", func(r report) string { return fmt.Sprint(r.OpsFailed) }},
		} {
			// Outputs depend on the seed and op counts on the number of
			// passes that fitted the budget, so compare runs pairwise.
			type key struct {
				seed   int64
				passes int
			}
			seen := map[key]string{}
			for _, r := range ra {
				seen[key{r.Seed, r.Dists["wall_s"].N}] = check.get(r)
			}
			same, pairs := true, 0
			for _, r := range rb {
				if v, ok := seen[key{r.Seed, r.Dists["wall_s"].N}]; ok {
					pairs++
					same = same && v == check.get(r)
				}
			}
			if pairs > 0 {
				fmt.Fprintf(w, "%-17s %-13s identical on %d pairs of equal seed and pass count: %v\n", name, check.what, pairs, same)
			}
		}
	}
	return nil
}
