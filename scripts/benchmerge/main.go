// Command benchmerge gates the emulator engine benchmarks in CI: it
// reads `go test -bench` output and compares the engine speedup
// ratios it derives against a checked-in baseline.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSim...' -benchtime 3x -count 5 . | benchmerge -check scripts/bench_baseline.json
//
// The baseline records engine speedup *ratios* per workload flavour
// (translated vs interp, chained vs translated, routine vs chained)
// and observability overheads (telemetry and profiling slowdowns).
// Ratios, unlike ns/op, are stable across machines, so the baseline
// can live in the repository: the check fails when a measured speedup
// falls more than the baseline's tolerance below its recorded value —
// e.g. SimTranslated regressing >20% relative to the interpreter — or
// an overhead rises more than the tolerance above it.  The committed
// performance trajectory is bench/results/, written by bench/run.sh.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// baseline is the checked-in regression gate (scripts/bench_baseline.json).
type baseline struct {
	Comment   string                        `json:"comment,omitempty"`
	Tolerance float64                       `json:"tolerance"`
	Flavours  map[string]map[string]float64 `json:"flavours"`
}

var benchLine = regexp.MustCompile(`^BenchmarkSim([A-Za-z]+)/([A-Za-z0-9_-]+?)(?:-\d+)?\s`)

func main() {
	check := flag.String("check", "", "compare speedup ratios against this baseline file; exit 1 on regression")
	flag.Parse()
	if *check == "" {
		fatal(fmt.Errorf("usage: go test -bench 'BenchmarkSim...' . | benchmerge -check baseline.json"))
	}
	rates, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(rates) == 0 {
		fatal(fmt.Errorf("no BenchmarkSim* lines on stdin"))
	}
	if err := checkBaseline(*check, speedups(rates)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge: REGRESSION:", err)
		os.Exit(1)
	}
	fmt.Printf("benchmerge: within baseline %s\n", *check)
}

// parse reads `go test -bench` output and collects each
// BenchmarkSim<Engine>/<flavour> line's sim-insts/s, keyed by flavour
// and lower-case engine name.  Repeated lines (go test -count) are
// reduced to their median, so one noisy iteration cannot decide a gate.
func parse(r io.Reader) (map[string]map[string]float64, error) {
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		engine, flavour := strings.ToLower(m[1]), m[2]
		// Fields after the name: iteration count, then value/unit pairs.
		f := strings.Fields(line)
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] != "sim-insts/s" {
				continue
			}
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				if runs[flavour] == nil {
					runs[flavour] = map[string][]float64{}
				}
				runs[flavour][engine] = append(runs[flavour][engine], v)
			}
		}
	}
	rates := map[string]map[string]float64{}
	for flavour, e := range runs {
		rates[flavour] = map[string]float64{}
		for engine, vs := range e {
			slices.Sort(vs)
			rates[flavour][engine] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
	}
	return rates, sc.Err()
}

// speedups derives the engine ratios per flavour: how much the
// translation cache buys over the interpreter, how much chaining
// plus hot-block promotion buy over the unchained translation cache,
// and how much
// whole-routine compilation buys over the chained engine.  Overhead
// ratios are slowdowns — base over instrumented, same engine both
// sides — so >= ~1.0 by construction.
func speedups(rates map[string]map[string]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for flavour, e := range rates {
		s := map[string]float64{}
		for _, r := range []struct{ name, num, den string }{
			{"translated_vs_interp", "translated", "interp"},
			{"chained_vs_translated", "chained", "translated"},
			{"routine_vs_chained", "routine", "chained"},
			{"telemetry_overhead", "translated", "telemetry"},
			{"profiling_overhead", "chained", "profiled"},
		} {
			if e[r.num] > 0 && e[r.den] > 0 {
				s[r.name] = round2(e[r.num] / e[r.den])
			}
		}
		out[flavour] = s
	}
	return out
}

// checkBaseline fails when any ratio recorded in the baseline file is
// unmeasured, a speedup measured more than tolerance below its
// baseline value, or an overhead more than tolerance above it.
func checkBaseline(path string, measured map[string]map[string]float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if base.Tolerance <= 0 {
		base.Tolerance = 0.20
	}
	for flavour, ratios := range base.Flavours {
		for name, want := range ratios {
			got, ok := measured[flavour][name]
			if !ok {
				return fmt.Errorf("%s/%s: baseline ratio not measured (missing engine lines?)", flavour, name)
			}
			if strings.HasSuffix(name, "_overhead") {
				// Overheads are slowdown ratios: regression means the
				// instrumented run got SLOWER, i.e. the ratio grew.
				if ceil := want * (1 + base.Tolerance); got > ceil {
					return fmt.Errorf("%s/%s: measured %.2fx, baseline %.2fx (ceiling %.2fx at %.0f%% tolerance)",
						flavour, name, got, want, ceil, 100*base.Tolerance)
				}
				continue
			}
			if floor := want * (1 - base.Tolerance); got < floor {
				return fmt.Errorf("%s/%s: measured %.2fx, baseline %.2fx (floor %.2fx at %.0f%% tolerance)",
					flavour, name, got, want, floor, 100*base.Tolerance)
			}
		}
	}
	return nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmerge:", err)
	os.Exit(1)
}
