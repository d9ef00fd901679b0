package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload definitions the benchmark reports from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %q (%q), code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nfile %+v\ncode %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nfile %+v\ncode %+v", bf.PerLayer, perLayer)
	}
}

// tinySize runs every workload on a handful of small inputs.  Its
// verify programs are not in the pool, so their references come from
// the interpreter during set-up: the fallback path runs too.
var tinySize = sizes{setups: 2, editPerCell: 1, verifyPerFlavour: 1, eeldWarm: 1, eeldThrash: 2,
	pool: []poolEntry{
		{Flavour: "medium", Seed: 1},
		{Flavour: "loopheavy", Seed: 1, HotLoop: 3},
		{Flavour: "callheavy", Seed: 1, HotLoop: 1},
		{Flavour: "memhot", Seed: 1, HotLoop: 3},
	},
	corpus: []corpusEntry{
		{Set: "edit", Routines: 20, Seed: 1},
		{Set: "edit", Routines: 20, Seed: 1, Strip: true},
		{Set: "edit", Routines: 20, Seed: 1, SunPro: true},
		{Set: "edit", Routines: 20, Seed: 1, SunPro: true, Strip: true},
		{Set: "eeld", Routines: 20, Seed: 1},
		{Set: "eeld", Routines: 20, Seed: 2},
		{Set: "eeld", Routines: 20, Seed: 1, SunPro: true},
		{Set: "eeld", Routines: 20, Seed: 2, SunPro: true},
	}}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and checks that each run passes its output checks and emits exactly
// the metrics BENCHMARK.json names, each with a finite value.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var logBuf, out bytes.Buffer
			o := &runOpts{seed: 1, phase: 200 * time.Millisecond, trace: trace,
				work: t.TempDir(), size: tinySize, log: &logger{w: &logBuf}}
			code := runWorkload(w, o, "", &out)
			var res output
			if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil || code != 0 {
				t.Errorf("%s trace=%v: exit %d, result %q (%v)\n%s", w.name, trace, code, out.String(), err, logBuf.String())
				continue
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, logBuf.String())
			}
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
	t.Logf("all workloads in %v", time.Since(start))
}

// TestRefusedInputIsCounted checks the failure accounting: an input
// the editor refuses is counted as an attempted, failed op, printed
// with its generator configuration, and not replaced by another.
// GCC-style progen seed 1010 at 120 routines is one the editor refused
// when the pool was built.
func TestRefusedInputIsCounted(t *testing.T) {
	entries := []corpusEntry{{Set: "eeld", Routines: 20, Seed: 1}, {Set: "eeld", Routines: 120, Seed: 1010}}
	var logBuf bytes.Buffer
	log := &logger{w: &logBuf}
	files, bad, err := buildCorpus(entries, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Skip("the editor now accepts progen seed 1010 at 120 routines")
	}
	if len(files) != 1 || len(bad) != 1 {
		t.Fatalf("%d accepted, %d refused; want 1 and 1", len(files), len(bad))
	}
	r := &result{log: log}
	r.refusals(bad)
	if r.attempted != 1 || r.failed != 1 {
		t.Errorf("attempted %d, failed %d; want 1 and 1", r.attempted, r.failed)
	}
	if !strings.Contains(logBuf.String(), "Seed:1010") {
		t.Errorf("refusal not printed with its configuration:\n%s", logBuf.String())
	}
}
