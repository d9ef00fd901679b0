package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 9.5, 2.25, 7, 4}, 1.9375, 4.5, 7.625},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "op", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(40)},
		{name: "b", parent: 0, start: ms(30), end: ms(50)},  // overlaps a
		{name: "c", parent: 0, start: ms(90), end: ms(120)}, // runs past op
		{name: "d", parent: 1, start: ms(15), end: ms(20)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(50), ms(25), ms(20), ms(30), ms(5)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want[i])
		}
	}
}

func TestRecorderLayersAndChromeTrace(t *testing.T) {
	var off *recorder
	if id := off.root("x", 1); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	off.end(off.child(-1, "y")) // must not panic

	r := newRecorder(true)
	op := r.root("op", 1)
	c := r.child(op, "layer")
	_ = make([]byte, 1<<20)
	r.end(c)
	r.end(op)
	ls := r.layers()
	if len(ls) != 2 || ls[0].name != "op" || ls[1].name != "layer" || ls[1].count != 1 {
		t.Fatalf("layers = %+v", ls)
	}
	if ls[0].self > ls[0].total || ls[1].self != ls[1].total {
		t.Errorf("self times: op %v of %v, layer %v of %v", ls[0].self, ls[0].total, ls[1].self, ls[1].total)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, map[string]*recorder{"test": r}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "layer" || doc.TraceEvents[2].Ph != "X" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 11, 10.5, 10.2, 10.8, 10.1, 10.4, 10.6, 10.3, 10.7}
	faster := make([]float64, len(a))
	for i, v := range a {
		faster[i] = v * 0.8
	}
	if _, _, v := verdict(a, faster, "lower"); v != "better" {
		t.Errorf("20%% faster on every pair: %s", v)
	}
	if _, _, v := verdict(a, faster, "higher"); v != "worse" {
		t.Errorf("20%% lower throughput on every pair: %s", v)
	}
	if _, _, v := verdict(a, a, "lower"); v != "identical" {
		t.Errorf("identical runs: %s", v)
	}
	wobble := append([]float64(nil), a...)
	wobble[0], wobble[1] = a[0]*1.01, a[1]*0.99
	if _, _, v := verdict(a, wobble, "lower"); v != "no change" {
		t.Errorf("one pair each way: %s", v)
	}
	if w := worsening(10, 11, "lower"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worsening = %v, want 0.1", w)
	}
}
