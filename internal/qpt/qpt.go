// Package qpt implements the profiling tool the paper rebuilds on
// EEL (§5): branch/edge counting in the style of Figure 1, hidden
// routines included, plus count recovery from an executed image.  The same instrumentation runs in two modes:
//
//   - Full (qpt2): EEL's complete analysis — CFGs with resolved
//     indirect jumps, liveness-driven register scavenging,
//     delay-slot folding.
//   - Light (the pre-EEL "qpt" baseline of Table 1): no liveness
//     (every snippet spills), no slicing (indirect jumps translate
//     at run time), no delay-slot folding.
package qpt

import (
	"fmt"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// Counter describes one inserted edge counter.
type Counter struct {
	// Addr is the counter word's address in the edited program.
	Addr uint32
	// Routine names the routine containing the edge.
	Routine string
	// From is the branch block's last original instruction address.
	From uint32
	// EdgeKind describes the instrumented edge ("taken", "fall", ...).
	EdgeKind string
}

// Result is an instrumentation run's outcome.
type Result struct {
	Counters []Counter
	// Edits is the number of snippets inserted.
	Edits int
	// RoutinesSeen counts instrumented routines (including hidden
	// ones discovered during the run).
	RoutinesSeen int
	// HiddenSeen counts the instrumented routines that analysis
	// discovered (§3.1 stage 4) rather than the symbol table.
	HiddenSeen int
}

// Mode selects the tool variant.
type Mode int

// Modes.
const (
	// Full is qpt2: complete EEL analysis.
	Full Mode = iota
	// Light is the ad-hoc baseline: no liveness, slicing, or
	// folding.
	Light
)

// CounterSnippet builds the Figure 2/5 increment snippet for the
// counter at addr: sethi/ld/add/st through two scavenged registers.
func CounterSnippet(addr uint32) (*core.Snippet, error) {
	p1, p2 := machine.Reg(16), machine.Reg(17)
	hi, err := sparc.EncodeSethi(p1, addr)
	if err != nil {
		return nil, err
	}
	ld, err := sparc.EncodeOp3Imm("ld", p2, p1, int32(sparc.Lo(addr)))
	if err != nil {
		return nil, err
	}
	add, err := sparc.EncodeOp3Imm("add", p2, p2, 1)
	if err != nil {
		return nil, err
	}
	st, err := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(addr)))
	if err != nil {
		return nil, err
	}
	return core.NewSnippet([]uint32{hi, ld, add, st}, []machine.Reg{p1, p2}), nil
}

// Configure sets e's analysis options for mode: Light turns off
// liveness, slicing and delay-slot folding.  Instrument calls it, but
// a caller that analyzes e first must call it before analysis, so the
// analyzed graphs match the mode.
func Configure(e *core.Executable, mode Mode) {
	if mode == Light {
		e.LightAnalysis = true
		e.Scavenge = false
		e.FoldDelaySlots = false
	}
}

// Instrument adds an edge counter to every editable out-edge of
// every block with more than one successor, in every routine —
// the paper's Figure 1 tool, hidden routines included.
func Instrument(e *core.Executable, mode Mode) (*Result, error) {
	Configure(e, mode)
	res := &Result{}
	err := e.EachRoutine(func(r *core.Routine) error {
		res.RoutinesSeen++
		if r.Hidden {
			res.HiddenSeen++
		}
		g, err := r.ControlFlowGraph()
		if err != nil {
			return fmt.Errorf("qpt: %s: %w", r.Name, err)
		}
		for _, b := range g.Blocks {
			if len(b.Succ) <= 1 || b.Kind != cfg.KindNormal {
				continue
			}
			for _, edge := range b.Succ {
				if edge.Uneditable {
					continue
				}
				addr := e.AllocData(4)
				snip, err := CounterSnippet(addr)
				if err != nil {
					return err
				}
				if err := r.AddCodeAlong(edge, snip); err != nil {
					return fmt.Errorf("qpt: %s: %w", r.Name, err)
				}
				last := b.Last()
				var from uint32
				if last != nil {
					from = last.Addr
				}
				res.Counters = append(res.Counters, Counter{
					Addr: addr, Routine: r.Name, From: from,
					EdgeKind: edge.Kind.String(),
				})
				res.Edits++
			}
		}
		return r.ProduceEditedRoutine()
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ReadCounts extracts counter values from an executed memory image.
func (r *Result) ReadCounts(mem *sim.Memory) []uint64 {
	out := make([]uint64, len(r.Counters))
	for i, c := range r.Counters {
		out[i] = uint64(mem.Read32(c.Addr))
	}
	return out
}

// Total sums all counters in an executed image.
func (r *Result) Total(mem *sim.Memory) uint64 {
	var t uint64
	for _, v := range r.ReadCounts(mem) {
		t += v
	}
	return t
}
