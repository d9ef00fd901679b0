package qpt_test

import (
	"testing"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/progen"
	"eel/internal/qpt"
	"eel/internal/sim"
)

func load(t *testing.T, seed int64) *core.Executable {
	t.Helper()
	p := progen.MustGenerate(progen.DefaultConfig(seed))
	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	return e
}

func execute(t *testing.T, e *core.Executable) *sim.CPU {
	t.Helper()
	edited, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu := sim.LoadFile(edited, nil)
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestInstrumentFullCountsEveryBranch(t *testing.T) {
	e := load(t, 31)
	res, err := qpt.Instrument(e, qpt.Full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edits == 0 || len(res.Counters) != res.Edits {
		t.Fatalf("edits=%d counters=%d", res.Edits, len(res.Counters))
	}
	cpu := execute(t, e)
	if res.Total(cpu.Mem) == 0 {
		t.Error("no events recorded")
	}
	counts := res.ReadCounts(cpu.Mem)
	if len(counts) != res.Edits {
		t.Fatalf("counts = %d", len(counts))
	}
}

func TestLightModeMatchesFullCounts(t *testing.T) {
	// The two tool variants must agree on what they measure — only
	// cost differs.
	eFull := load(t, 32)
	full, err := qpt.Instrument(eFull, qpt.Full)
	if err != nil {
		t.Fatal(err)
	}
	cpuF := execute(t, eFull)

	eLight := load(t, 32)
	light, err := qpt.Instrument(eLight, qpt.Light)
	if err != nil {
		t.Fatal(err)
	}
	cpuL := execute(t, eLight)

	if full.Total(cpuF.Mem) != light.Total(cpuL.Mem) {
		t.Errorf("totals differ: full %d, light %d", full.Total(cpuF.Mem), light.Total(cpuL.Mem))
	}
	if cpuF.ExitCode != cpuL.ExitCode {
		t.Errorf("exit codes differ: %d vs %d", cpuF.ExitCode, cpuL.ExitCode)
	}
}

// TestOptimalPlacementMatchesDense is the Ball-Larus validation: the
// spanning-tree placement's *derived* per-edge counts must equal the
// directly measured counts of the dense (every-edge) placement.
func TestOptimalPlacementMatchesDense(t *testing.T) {
	for _, seed := range []int64{33, 34, 35} {
		// Dense run.
		eDense := load(t, seed)
		dense, err := qpt.Instrument(eDense, qpt.Full)
		if err != nil {
			t.Fatal(err)
		}
		cpuD := execute(t, eDense)
		denseCounts := map[[2]uint32]uint64{} // (branch addr, edge kind idx)
		vals := dense.ReadCounts(cpuD.Mem)
		kindIdx := map[string]uint32{"fall": 0, "taken": 1, "return": 2}
		for i, c := range dense.Counters {
			denseCounts[[2]uint32{c.From, kindIdx[c.EdgeKind]}] += vals[i]
		}

		// Optimal run.
		eOpt := load(t, seed)
		opt, err := qpt.InstrumentOptimal(eOpt)
		if err != nil {
			t.Fatal(err)
		}
		cpuO := execute(t, eOpt)
		if cpuO.ExitCode != cpuD.ExitCode {
			t.Fatalf("seed %d: behaviour diverged", seed)
		}
		if opt.Counters >= opt.Edges {
			t.Errorf("seed %d: optimal placed %d counters on %d edges (no saving)",
				seed, opt.Counters, opt.Edges)
		}

		checked := 0
		for _, rp := range opt.Routines {
			derived, err := rp.DeriveCounts(cpuO.Mem)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, rp.Routine.Name, err)
			}
			if rp.Dense {
				continue
			}
			for edge, got := range derived {
				if edge.From.Kind != cfg.KindNormal || len(edge.From.Succ) <= 1 || edge.Uneditable {
					continue
				}
				last := edge.From.Last()
				if last == nil {
					continue
				}
				key := [2]uint32{last.Addr, kindIdx[edge.Kind.String()]}
				want, ok := denseCounts[key]
				if !ok {
					continue
				}
				if got != want {
					t.Errorf("seed %d: %s edge at %#x (%s): derived %d, measured %d",
						seed, rp.Routine.Name, last.Addr, edge.Kind, got, want)
				}
				checked++
			}
		}
		if checked < 5 {
			t.Errorf("seed %d: only %d edges cross-checked", seed, checked)
		}
		t.Logf("seed %d: optimal used %d counters for %d edges (dense used %d); %d cross-checked",
			seed, opt.Counters, opt.Edges, dense.Edits, checked)
	}
}

func TestOptimalConservation(t *testing.T) {
	e := load(t, 36)
	opt, err := qpt.InstrumentOptimal(e)
	if err != nil {
		t.Fatal(err)
	}
	cpu := execute(t, e)
	// Derived counts must satisfy conservation at every block.
	for _, rp := range opt.Routines {
		if rp.Dense {
			continue
		}
		derived, err := rp.DeriveCounts(cpu.Mem)
		if err != nil {
			t.Fatalf("%s: %v", rp.Routine.Name, err)
		}
		in := map[*cfg.Block]uint64{}
		out := map[*cfg.Block]uint64{}
		for edge, v := range derived {
			out[edge.From] += v
			in[edge.To] += v
		}
		for _, b := range rp.Graph.Blocks {
			if b == rp.Graph.Entry || b == rp.Graph.Exit {
				continue // closed by the virtual edge, not present here
			}
			if in[b] != out[b] {
				t.Errorf("%s block %d: in %d != out %d", rp.Routine.Name, b.ID, in[b], out[b])
			}
		}
	}
}

func TestHiddenRoutineWorklist(t *testing.T) {
	cfg0 := progen.DefaultConfig(37)
	cfg0.HiddenFrac = 0.4
	p := progen.MustGenerate(cfg0)
	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	res, err := qpt.Instrument(e, qpt.Full)
	if err != nil {
		t.Fatal(err)
	}
	if res.HiddenSeen == 0 {
		t.Skip("seed produced no hidden routines")
	}
	t.Logf("instrumented %d routines, %d of them hidden", res.RoutinesSeen, res.HiddenSeen)
}
