package eel_test

import (
	"fmt"
	"maps"
	"testing"

	"eel"
	"eel/internal/activemem"
	"eel/internal/progen"
	"eel/internal/qpt"
	"eel/internal/sim"
)

// TestFreshLoadEditsEveryRoutineOnce checks that a tool walking a
// freshly loaded executable, whose analysis splits hidden routines off
// mid-walk, instruments exactly what it instruments after AnalyzeAll
// has found every routine up front: the same routines, edges and
// memory sites, none of them twice, and the same profile when both
// qpt images run.  Counter addresses are not compared, since hidden
// routines are reached later on the fresh path and take their
// counters later.
func TestFreshLoadEditsEveryRoutineOnce(t *testing.T) {
	for pers, persName := range []string{progen.GCC: "gcc", progen.SunPro: "sunpro"} {
		for _, seed := range []int64{1, 2} {
			cfg := progen.DefaultConfig(seed)
			cfg.Personality, cfg.Routines = progen.Personality(pers), 40
			p, err := progen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/seed%d", persName, seed), func(t *testing.T) {
				fresh, analyzed := profileEdges(t, p, false), profileEdges(t, p, true)
				if len(fresh) == 0 || !maps.Equal(fresh, analyzed) {
					t.Errorf("qpt edge profile: fresh load %d edges, after AnalyzeAll %d, or counts differ", len(fresh), len(analyzed))
				}
				fresh, analyzed = optimalRoutines(t, p, false), optimalRoutines(t, p, true)
				if !maps.Equal(fresh, analyzed) {
					t.Errorf("optimal placement: fresh load %d routines, after AnalyzeAll %d, or placements differ", len(fresh), len(analyzed))
				}
				fresh, analyzed = memorySites(t, p, false), memorySites(t, p, true)
				if !maps.Equal(fresh, analyzed) {
					t.Errorf("activemem: fresh load %d sites, after AnalyzeAll %d, or sites differ", len(fresh), len(analyzed))
				}
			})
		}
	}
}

// loadFor opens p, analyzing every routine first when analyzed is
// set, and fails unless analysis found hidden routines.
func loadFor(t *testing.T, p *progen.Program, analyzed bool) *eel.Executable {
	t.Helper()
	e, err := eel.Load(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if !analyzed {
		return e
	}
	res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Hidden == 0 {
		t.Fatal("the program has no hidden routines to split off")
	}
	return e
}

// profileEdges instruments p with qpt, runs the edited image, and
// returns the count of every instrumented edge by routine, branch
// address and edge kind.
func profileEdges(t *testing.T, p *progen.Program, analyzed bool) map[string]uint64 {
	t.Helper()
	e := loadFor(t, p, analyzed)
	res, err := qpt.Instrument(e, qpt.Full)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu := sim.LoadFile(edited, nil)
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for i, n := range res.ReadCounts(cpu.Mem) {
		c := res.Counters[i]
		key := fmt.Sprintf("%s %#x %s", c.Routine, c.From, c.EdgeKind)
		if _, dup := out[key]; dup {
			t.Errorf("edge %s instrumented twice", key)
		}
		out[key] = n
	}
	return out
}

// optimalRoutines returns, by routine name, the counters and edges
// of InstrumentOptimal's placement.
func optimalRoutines(t *testing.T, p *progen.Program, analyzed bool) map[string]uint64 {
	t.Helper()
	res, err := qpt.InstrumentOptimal(loadFor(t, p, analyzed))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, rp := range res.Routines {
		if _, dup := out[rp.Routine.Name]; dup {
			t.Errorf("routine %s instrumented twice", rp.Routine.Name)
		}
		out[rp.Routine.Name] = uint64(rp.Instrumented)<<32 | uint64(rp.TotalEdges)
	}
	return out
}

// memorySites returns activemem's instrumented memory instructions.
func memorySites(t *testing.T, p *progen.Program, analyzed bool) map[string]uint64 {
	t.Helper()
	res, err := activemem.Instrument(loadFor(t, p, analyzed), activemem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for _, a := range res.SiteAddrs {
		key := fmt.Sprintf("%#x", a)
		if _, dup := out[key]; dup {
			t.Errorf("memory site %s instrumented twice", key)
		}
		out[key] = 1
	}
	return out
}
