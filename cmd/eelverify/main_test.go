package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestVerifyGenerated runs the -gen -instrument path end to end on
// every engine: the edited program must behave like the original.
func TestVerifyGenerated(t *testing.T) {
	for _, engine := range []string{"interp", "translated", "chained", "routine"} {
		var out bytes.Buffer
		if err := run([]string{"-gen=7", "-gen-routines=12", "-instrument", "-stats", "-engine=" + engine}, &out); err != nil {
			t.Fatalf("-engine=%s: %v\n%s", engine, err, out.String())
		}
		for _, want := range []string{"VERIFY OK", "jit original: blocks ", "jit edited: blocks "} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("-engine=%s: output lacks %q:\n%s", engine, want, out.String())
			}
		}
	}
}

// TestVerifyRefusesNonSPARC pins the SPARC guard on the -gen path,
// which edits: another -isa is refused up front instead of failing
// inside the editor with a misleading "no edited address" error.
func TestVerifyRefusesNonSPARC(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-isa=mips", "-gen=3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "support sparc only") {
		t.Fatalf("-isa=mips -gen: err = %v, want the SPARC-only refusal", err)
	}
	if out.Len() != 0 {
		t.Errorf("refused run still printed:\n%s", out.String())
	}
}
