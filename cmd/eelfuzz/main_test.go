package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRefusesUncoveredISA: a machine without a program generator —
// registered (alpha) or not (bogus) — is refused at the flag with exit
// status 2, before any program is generated.
func TestRefusesUncoveredISA(t *testing.T) {
	for _, isa := range []string{"alpha", "bogus"} {
		var out bytes.Buffer
		if code := run([]string{"-isa=" + isa, "-n=1"}, &out); code != 2 {
			t.Errorf("-isa=%s: exit status %d, want 2", isa, code)
		}
		if out.Len() != 0 {
			t.Errorf("-isa=%s: refused run still printed:\n%s", isa, out.String())
		}
	}
}

// TestRunReportsClean: a small run on each covered machine reports no
// failures and exits 0.
func TestRunReportsClean(t *testing.T) {
	for _, isa := range []string{"sparc", "mips"} {
		var out bytes.Buffer
		if code := run([]string{"-isa=" + isa, "-n=3", "-seed=7"}, &out); code != 0 {
			t.Fatalf("-isa=%s: exit status %d\n%s", isa, code, out.String())
		}
		if !strings.Contains(out.String(), "0 failure(s)") {
			t.Errorf("-isa=%s: output lacks the clean report:\n%s", isa, out.String())
		}
	}
}
