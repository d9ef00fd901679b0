package toolmain_test

import (
	"flag"
	"io"
	"strings"
	"testing"

	"eel/internal/sim"
	"eel/internal/toolmain"
)

// newToolFlags registers what an executing tool registers: -engine
// plus the common flags.
func newToolFlags() (*flag.FlagSet, *sim.Engine) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e := toolmain.AddEngine(fs)
	toolmain.AddCommon(fs)
	return fs, e
}

// TestEngineFlag pins the one engine selector: unknown names fail at
// parse time, the retired engine and observability aliases are
// unknown flags, the default is the routine tier, and every engine
// name round-trips through sim.Engine.
func TestEngineFlag(t *testing.T) {
	fs, e := newToolFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *e != sim.EngineRoutine {
		t.Errorf("default engine %s, want %s", *e, sim.EngineRoutine)
	}

	fs, _ = newToolFlags()
	if err := fs.Parse([]string{"-engine=bogus"}); err == nil || !strings.Contains(err.Error(), `unknown engine "bogus"`) {
		t.Errorf("-engine=bogus: err = %v, want a parse error", err)
	}

	for _, retired := range []string{"-nojit", "-nochain", "-jitstats", "-pprof=:0", "-metrics-addr=:0"} {
		fs, _ := newToolFlags()
		err := fs.Parse([]string{retired})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", retired, err)
		}
	}

	fs, _ = newToolFlags()
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	for _, want := range []string{"engine", "stats", "metrics", "trace", "debug-addr"} {
		if !strings.Contains(" "+strings.Join(names, " ")+" ", " "+want+" ") {
			t.Errorf("flag -%s not registered (have %v)", want, names)
		}
	}

	for _, name := range sim.EngineNames() {
		fs, e := newToolFlags()
		if err := fs.Parse([]string{"-engine=" + name}); err != nil {
			t.Fatalf("-engine=%s: %v", name, err)
		}
		if got := e.String(); got != name {
			t.Errorf("-engine=%s parsed as %s", name, got)
		}
	}
	cpu := &sim.CPU{}
	for _, name := range []string{toolmain.EngineInterp, toolmain.EngineTranslated, toolmain.EngineChained, toolmain.EngineRoutine} {
		if err := toolmain.ConfigureEngine(cpu, name); err != nil || cpu.Engine.String() != name {
			t.Errorf("ConfigureEngine(%q): engine %s, err %v", name, cpu.Engine, err)
		}
	}
	if err := toolmain.ConfigureEngine(cpu, "bogus"); err == nil {
		t.Error("ConfigureEngine accepted an unknown engine name")
	}
}
