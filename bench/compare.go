package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readSets(path string) ([]resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return rf.Sets, nil
}

// compareFiles compares the last result set of A (the parent) with
// the last of B (the change), or the last two sets of a single file.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	var a, b resultSet
	switch len(paths) {
	case 1:
		sets, err := readSets(paths[0])
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if len(sets) < 2 {
			fmt.Fprintf(stderr, "%s holds one result set; give a second file\n", paths[0])
			return 1
		}
		a, b = sets[len(sets)-2], sets[len(sets)-1]
	case 2:
		sa, err := readSets(paths[0])
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		sb, err := readSets(paths[1])
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		a, b = sa[len(sa)-1], sb[len(sb)-1]
	default:
		fmt.Fprintln(stderr, "usage: -compare A.json [B.json]")
		return 2
	}
	compare(stdout, &a, &b)
	return 0
}

// verdict applies the rule for claiming a change: B wins at least nine
// tenths of the pairs (ties count for neither side) and the medians
// differ by more than A's own spread between quartiles.  Runs pair up
// in the order they were made, which with -runs is seed order; when
// every pair ties, the metric is an exact count that did not move.
func verdict(av, bv []float64, better string) (wins, pairs int, v string) {
	pairs = min(len(av), len(bv))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch d := bv[i] - av[i]; {
		case d == 0:
		case (d < 0) == (better == "lower"):
			wins++
		default:
			losses++
		}
	}
	q1, _, q3 := quartiles(av)
	apart := math.Abs(median(bv)-median(av)) > q3-q1
	switch {
	case pairs > 0 && wins == 0 && losses == 0:
		v = "identical" // an exact count, unchanged on every input
	case pairs > 0 && apart && float64(wins) >= 0.9*float64(pairs):
		v = "better"
	case pairs > 0 && apart && float64(losses) >= 0.9*float64(pairs):
		v = "worse"
	default:
		v = "no change"
	}
	return wins, pairs, v
}

// worsening is how much B's median is worse than A's, as a share of
// A's median (negative when B is better).
func worsening(ma, mb float64, better string) float64 {
	if ma == 0 {
		return 0
	}
	if better == "lower" {
		return (mb - ma) / math.Abs(ma)
	}
	return (ma - mb) / math.Abs(ma)
}

func compare(w io.Writer, a, b *resultSet) {
	fmt.Fprintf(w, "A = %q (%d runs), B = %q (%d runs)\n", a.Label, len(a.Runs), b.Label, len(b.Runs))
	fmt.Fprintf(w, "%-12s %-28s %-34s %-34s %8s %7s %-9s %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "worse by", "B wins", "verdict", "bound")
	for _, wl := range workloads {
		for _, d := range metricOrder(a.Trace) {
			av, bv := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			wins, pairs, v := verdict(av, bv, d.Better)
			aq1, _, aq3 := quartiles(av)
			bq1, _, bq3 := quartiles(bv)
			worse := worsening(median(av), median(bv), d.Better)
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("ok (%.0f%%)", 100*d.Bound)
				if worse > d.Bound {
					bound = fmt.Sprintf("EXCEEDED (%.0f%%)", 100*d.Bound)
				}
			}
			fmt.Fprintf(w, "%-12s %-28s %-34s %-34s %7.1f%% %3d/%-3d %-9s %s\n", wl.name, d.Name,
				fmt.Sprintf("%.5g [%.5g %.5g]", median(av), aq1, aq3),
				fmt.Sprintf("%.5g [%.5g %.5g]", median(bv), bq1, bq3),
				100*worse, wins, pairs, v, bound)
		}
	}
}
