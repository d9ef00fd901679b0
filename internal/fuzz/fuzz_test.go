package fuzz

import (
	"strings"
	"testing"

	"eel/internal/progen"
)

// TestGenerateDeterministic checks that the same config always yields
// the same program bytes — the property that makes shrunk configs
// usable as regression tests.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(42)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Fatal("same config generated different source")
	}
	aw, bw := a.TextWords(), b.TextWords()
	if len(aw) != len(bw) {
		t.Fatalf("text length differs: %d vs %d", len(aw), len(bw))
	}
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("word %d differs: %08x vs %08x", i, aw[i], bw[i])
		}
	}
}

// TestGenerateSeedsDiffer checks the per-routine seeding scheme
// actually spreads: different master seeds give different programs,
// and all feature-toggled shrink candidates still generate.
func TestGenerateSeedsDiffer(t *testing.T) {
	a, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Source == b.Source {
		t.Fatal("different seeds generated identical programs")
	}
	// Every single-toggle-off shrink candidate of a full config must
	// still assemble: Shrink relies on candidates generating cleanly.
	for _, tc := range toggles {
		cand := DefaultConfig(7)
		*tc.flag(&cand) = false
		if _, err := Generate(cand); err != nil {
			t.Errorf("config without %s fails to generate: %v", tc.name, err)
		}
	}
}

// TestRandConfigCoverage checks that RandConfig explores the space:
// over a modest sample every feature toggle is seen both on and off.
func TestRandConfigCoverage(t *testing.T) {
	on := map[string]int{}
	const n = 200
	for i := 0; i < n; i++ {
		cfg := RandConfig(99, i)
		if cfg.Routines < 1 || cfg.BodyOps < 1 {
			t.Fatalf("config %d has empty structure: %+v", i, cfg)
		}
		for _, tc := range toggles {
			if *tc.flag(&cfg) {
				on[tc.name]++
			}
		}
	}
	for _, tc := range toggles {
		if on[tc.name] == 0 || on[tc.name] == n {
			t.Errorf("toggle %s never varies (%d/%d on)", tc.name, on[tc.name], n)
		}
	}
}

// TestShrinkMinimizes drives Shrink with a synthetic oracle that
// fails whenever the Traps toggle is set: the shrinker must reduce to
// the minimal structure with only that toggle surviving.
func TestShrinkMinimizes(t *testing.T) {
	cfg := DefaultConfig(5)
	check := func(p *Program, _ uint64) []Violation {
		if p.Cfg.Traps {
			return []Violation{{Oracle: "synthetic", Detail: "traps set"}}
		}
		return nil
	}
	got := Shrink(cfg, check, 1000)
	if !got.Traps {
		t.Fatal("shrink lost the failing toggle")
	}
	if got.Routines != 1 || got.BodyOps != 1 {
		t.Errorf("structure not minimized: %+v", got)
	}
	for _, tc := range toggles {
		if tc.name != "traps" && *tc.flag(&got) {
			t.Errorf("irrelevant toggle %s survived shrinking", tc.name)
		}
	}
	summary := Generalize(got, check, 1000)
	if !strings.Contains(summary, "traps") || !strings.Contains(summary, "8/8") {
		t.Errorf("generalization summary %q should name traps and reproduce under all seeds", summary)
	}
}

// TestDefaultConfigPasses is the clean-run smoke test: a handful of
// fully-featured programs must satisfy all three oracles.
func TestDefaultConfigPasses(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p, err := Generate(DefaultConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range CheckAll(p, 10_000_000) {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestProgenRoundTrip runs the round-trip oracle over progen's own
// SPARC corpus.  The shared emitter records every dispatch table and
// data blob, so the words it marks as data must number exactly the
// .word directives of the source (table arms plus blob words), and
// every other text word must come from the encoders.
func TestProgenRoundTrip(t *testing.T) {
	for _, pers := range []progen.Personality{progen.GCC, progen.SunPro} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := progen.DefaultConfig(seed)
			cfg.Personality = pers
			p := &Program{Program: *progen.MustGenerate(cfg)}
			for _, v := range CheckRoundTripWords(p) {
				t.Errorf("%v seed %d: %s", pers, seed, v)
			}
			words := 0
			for _, r := range p.DataRanges {
				words += int(r[1]-r[0]) / 4
			}
			if want := strings.Count(p.Source, "\t.word "); words != want || want == 0 {
				t.Errorf("%v seed %d: data ranges cover %d words, source has %d .word directives",
					pers, seed, words, want)
			}
		}
	}
}
