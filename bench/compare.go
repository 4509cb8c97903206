package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// loadRuns reads every results file matching a comma-separated list of
// glob patterns.
func loadRuns(patterns string) ([]run, error) {
	var runs []run
	for _, pat := range strings.Split(patterns, ",") {
		files, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no results file matches %q", pat)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var rf resultsFile
			if err := json.Unmarshal(raw, &rf); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			runs = append(runs, rf.Runs...)
		}
	}
	return runs, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method) and
// statistics.median compute them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// compareRuns prints both sides' median and quartiles for every
// (workload, metric) and judges each end-to-end pair against its bound: a
// median worse by more than the bound is a regression, and a side whose
// spread (quartile distance over median) exceeds the bound leaves the pair
// unresolved. It reports false when any pair regressed.
func compareRuns(w io.Writer, def benchmarkFile, a, b string) (bool, error) {
	ra, err := loadRuns(a)
	if err != nil {
		return false, err
	}
	rb, err := loadRuns(b)
	if err != nil {
		return false, err
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		defs[d.Name] = d
	}
	type key struct{ workload, metric string }
	group := func(runs []run) map[key][]float64 {
		g := map[key][]float64{}
		for _, r := range runs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				g[k] = append(g[k], m.Value)
			}
		}
		return g
	}
	ga, gb := group(ra), group(rb)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	for _, k := range keys {
		d := defs[k.metric]
		a1, am, a3 := quartiles(ga[k])
		b1, bm, b3 := quartiles(gb[k])
		change := (bm - am) / am
		worse := change
		if d.Better == "higher" {
			worse = -change
		}
		verdict := ""
		switch {
		case d.Bound == 0:
		case (a3-a1)/am > d.Bound || (b3-b1)/bm > d.Bound:
			verdict = "unresolved"
		case worse > d.Bound:
			verdict, ok = "REGRESSION", false
		default:
			verdict = "ok"
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%s\t%s\n",
			k.workload, k.metric, d.Unit, am, a1, a3, len(ga[k]), bm, b1, b3, len(gb[k]), 100*change, bound, verdict)
	}
	return ok, tw.Flush()
}
