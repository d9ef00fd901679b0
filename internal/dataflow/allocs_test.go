package dataflow_test

import (
	"runtime/debug"
	"testing"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/progen"
)

// Exact allocation counts of the dominator and loop analyses over the
// seed-7, 30-routine program's graphs (the one cfg's
// TestCFGBuildAllocs builds).
const (
	dominatorsAllocs = 180
	loopsAllocs      = 254
)

// allocGraphs builds the graphs the allocation gates measure over.
func allocGraphs(t *testing.T) []*cfg.Graph {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	c := progen.DefaultConfig(7)
	c.Routines = 30
	p, err := progen.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	text := p.File.Text()
	insts := machine.DecodeText(e.Dec, text.Data)
	var gs []*cfg.Graph
	for _, r := range e.Routines() {
		g, err := cfg.Build(e.Dec, insts, text.Addr, r.Start, r.End, r.Entries)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// checkAllocs measures f once per run with collection off and
// compares the count with want.
func checkAllocs(t *testing.T, what string, want int, f func()) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(5, f); n != float64(want) {
		t.Errorf("%s allocates %.0f times, want exactly %d", what, n, want)
	}
}

func TestDominatorsAllocs(t *testing.T) {
	gs := allocGraphs(t)
	checkAllocs(t, "Dominators", dominatorsAllocs, func() {
		for _, g := range gs {
			dataflow.Dominators(g)
		}
	})
}

func TestLoopsAllocs(t *testing.T) {
	gs := allocGraphs(t)
	doms := make([]*dataflow.DomTree, len(gs))
	for i, g := range gs {
		doms[i] = dataflow.Dominators(g)
	}
	checkAllocs(t, "NaturalLoops", loopsAllocs, func() {
		for i, g := range gs {
			dataflow.NaturalLoops(g, doms[i])
		}
	})
}
