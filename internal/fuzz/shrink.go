package fuzz

import (
	"fmt"
	"strings"
)

// CheckFunc runs some oracle set over a generated program.
type CheckFunc func(p *Program, maxSteps uint64) []Violation

// fails regenerates cfg and reports whether check still finds a
// violation.  Generation failures count as failures too (a config
// that stops assembling mid-shrink is its own bug).
func fails(cfg Config, check CheckFunc, maxSteps uint64) bool {
	p, err := Generate(cfg)
	if err != nil {
		return true
	}
	return len(check(p, maxSteps)) > 0
}

// Shrink greedily minimizes a failing configuration: it halves and
// then decrements the structural sizes, and turns feature toggles off
// one at a time, keeping any reduction that still fails.  Because the
// generator draws each routine from its own seed-derived stream,
// reducing Routines is a prefix-preserving shrink.  The result is the
// smallest configuration this greedy process can reach that still
// violates check.
func Shrink(cfg Config, check CheckFunc, maxSteps uint64) Config {
	if !fails(cfg, check, maxSteps) {
		return cfg // not reproducible; nothing to shrink
	}
	changed := true
	for changed {
		changed = false
		// Structural sizes first: halve while possible, then step.
		for _, step := range []func(c *Config) bool{
			func(c *Config) bool { c.Routines /= 2; return c.Routines >= 1 },
			func(c *Config) bool { c.Routines--; return c.Routines >= 1 },
			func(c *Config) bool { c.BodyOps /= 2; return c.BodyOps >= 1 },
			func(c *Config) bool { c.BodyOps--; return c.BodyOps >= 1 },
		} {
			for {
				cand := cfg
				if !step(&cand) {
					break
				}
				if !fails(cand, check, maxSteps) {
					break
				}
				cfg = cand
				changed = true
			}
		}
		for _, t := range toggles {
			cand := cfg
			if f := t.flag(&cand); *f {
				*f = false
				if fails(cand, check, maxSteps) {
					cfg = cand
					changed = true
				}
			}
		}
	}
	return cfg
}

// Generalize characterizes a shrunk failure: which of the surviving
// feature toggles are required (clearing them makes the failure
// vanish), and whether the failure reproduces under nearby seeds.  It
// returns a human-readable summary for the report.
func Generalize(cfg Config, check CheckFunc, maxSteps uint64) string {
	var required []string
	for _, t := range toggles {
		if !*t.flag(&cfg) {
			continue
		}
		cand := cfg
		*t.flag(&cand) = false
		if !fails(cand, check, maxSteps) {
			required = append(required, t.name)
		}
	}
	hits := 0
	const trials = 8
	for d := int64(1); d <= trials; d++ {
		cand := cfg
		cand.Seed += d
		if fails(cand, check, maxSteps) {
			hits++
		}
	}
	var b strings.Builder
	if len(required) > 0 {
		fmt.Fprintf(&b, "required features: %s; ", strings.Join(required, ","))
	} else {
		b.WriteString("no single feature is required; ")
	}
	fmt.Fprintf(&b, "reproduces under %d/%d nearby seeds", hits, trials)
	return b.String()
}
