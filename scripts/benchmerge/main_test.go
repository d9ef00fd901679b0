package main

import (
	"fmt"
	"strings"
	"testing"
)

// benchOutput fakes `go test -bench` output: one BenchmarkSim line per
// flavour and engine, at the given instructions per second.
func benchOutput(rates map[string]map[string]float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: eel\n")
	for flavour, engines := range rates {
		for engine, r := range engines {
			fmt.Fprintf(&b, "BenchmarkSim%s/%s-2 \t       3\t  41200000 ns/op\t %.0f sim-insts/s\t 12.5 chain-hit-%%\n",
				engine, flavour, r)
		}
	}
	b.WriteString("PASS\nok  \teel\t4.2s\n")
	return b.String()
}

// healthy is a run comfortably inside both committed baselines.
func healthy() map[string]map[string]float64 {
	rates := map[string]map[string]float64{}
	for _, flavour := range []string{"medium", "loopheavy", "callheavy"} {
		rates[flavour] = map[string]float64{
			"Interp":     1e6,
			"Translated": 25e6,
			"Chained":    50e6,
			"Routine":    300e6,
			"Telemetry":  24e6,
			"Profiled":   49e6,
		}
	}
	return rates
}

// gate parses canned output and checks it against a committed baseline.
func gate(t *testing.T, rates map[string]map[string]float64, baselinePath string) error {
	t.Helper()
	parsed, err := parse(strings.NewReader(benchOutput(rates)))
	if err != nil {
		t.Fatal(err)
	}
	return checkBaseline(baselinePath, speedups(parsed))
}

func TestCheckWithinBaseline(t *testing.T) {
	for _, path := range []string{"../bench_baseline.json", "../bench_overhead_baseline.json"} {
		if err := gate(t, healthy(), path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

func TestCheckFloorBreach(t *testing.T) {
	rates := healthy()
	rates["medium"]["Translated"] = 4e6 // 4x over interp; the floor is 6.0 * 0.8 = 4.8
	err := gate(t, rates, "../bench_baseline.json")
	if err == nil || !strings.Contains(err.Error(), "medium/translated_vs_interp") || !strings.Contains(err.Error(), "floor") {
		t.Errorf("want a medium/translated_vs_interp floor breach, got %v", err)
	}
}

func TestCheckOverheadCeilingBreach(t *testing.T) {
	rates := healthy()
	rates["loopheavy"]["Telemetry"] = 15e6 // 1.67x slowdown; the ceiling is 1.05 * 1.25
	err := gate(t, rates, "../bench_overhead_baseline.json")
	if err == nil || !strings.Contains(err.Error(), "loopheavy/telemetry_overhead") || !strings.Contains(err.Error(), "ceiling") {
		t.Errorf("want a loopheavy/telemetry_overhead ceiling breach, got %v", err)
	}
}

func TestCheckRatioNotMeasured(t *testing.T) {
	rates := healthy()
	delete(rates["callheavy"], "Routine")
	err := gate(t, rates, "../bench_baseline.json")
	if err == nil || !strings.Contains(err.Error(), "callheavy/routine_vs_chained") || !strings.Contains(err.Error(), "not measured") {
		t.Errorf("want callheavy/routine_vs_chained reported unmeasured, got %v", err)
	}
}

// TestParseMedian: repeated lines for one engine and flavour (go test
// -count) reduce to their median, whatever order they arrive in; an
// even count takes the mean of the middle two.
func TestParseMedian(t *testing.T) {
	out := "BenchmarkSimChained/medium-2 \t 3\t 1 ns/op\t 5e6 sim-insts/s\n" +
		"BenchmarkSimChained/medium-2 \t 3\t 1 ns/op\t 9e6 sim-insts/s\n" +
		"BenchmarkSimChained/medium-2 \t 3\t 1 ns/op\t 1e6 sim-insts/s\n" +
		"BenchmarkSimRoutine/medium-2 \t 3\t 1 ns/op\t 4e6 sim-insts/s\n" +
		"BenchmarkSimRoutine/medium-2 \t 3\t 1 ns/op\t 2e6 sim-insts/s\n"
	rates, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := rates["medium"]["chained"]; got != 5e6 {
		t.Errorf("chained median of three = %g, want 5e6", got)
	}
	if got := rates["medium"]["routine"]; got != 3e6 {
		t.Errorf("routine median of two = %g, want 3e6", got)
	}
}
