package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestProfileDeterministic proves the acceptance property: the same
// progen workload produces a byte-identical profile report under
// every -engine selection (routine degrades to chained while
// profiling), repeated runs included, and regardless of analysis
// worker count.
func TestProfileDeterministic(t *testing.T) {
	// The "jit" engine-stats lines legitimately differ between engines
	// (the interpreter builds no superblocks); everything else — the
	// actual profile — must be byte-identical.
	stripEngine := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "jit ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}

	var reports []string
	for _, v := range []struct {
		engine string
		jobs   int
	}{
		{"chained", 1}, {"chained", 4}, {"translated", 1},
		{"interp", 1}, {"interp", 4}, {"routine", 1},
	} {
		var out bytes.Buffer
		err := run([]string{"-gen=7", "-gen-routines=20", "-top=8", "-stats",
			"-engine=" + v.engine, fmt.Sprint("-j=", v.jobs)}, &out)
		if err != nil {
			t.Fatalf("engine=%s jobs=%d: %v", v.engine, v.jobs, err)
		}
		reports = append(reports, out.String())
	}
	for i := 1; i < len(reports); i++ {
		if stripEngine(reports[i]) != stripEngine(reports[0]) {
			t.Fatalf("profile not deterministic:\n--- variant 0 ---\n%s\n--- variant %d ---\n%s",
				reports[0], i, reports[i])
		}
	}

	out := reports[0]
	for _, want := range []string{"eelprof: gen7:", "hot routines", "hot blocks", "branches:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "after 0 instructions") {
		t.Errorf("workload executed nothing:\n%s", out)
	}
	if !strings.Contains(out, "jit gen7: blocks ") {
		t.Errorf("-stats printed no engine counters:\n%s", out)
	}
}

// TestProfileRefusesNonSPARC pins the SPARC guard: the profile is
// attributed through the SPARC-only analysis pipeline, so another
// -isa is refused before anything executes (it used to decode MIPS
// words as SPARC and die on an illegal instruction).
func TestProfileRefusesNonSPARC(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-isa=mips", "-gen=3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "support sparc only") {
		t.Fatalf("-isa=mips: err = %v, want the SPARC-only refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("refused run still printed a report:\n%s", out.String())
	}
}
