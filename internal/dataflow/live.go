package dataflow

import (
	"eel/internal/cfg"
	"eel/internal/machine"
)

// DefaultExitLive is the register set assumed live when a routine
// exits under the SPARC calling convention this repository's programs
// use: the return value (%o0), the stack and frame pointers, the
// return address (%o7), and the windowed in registers (they belong to
// the caller).
func DefaultExitLive() machine.RegSet {
	s := machine.NewRegSet(8, 14, 15, 30) // %o0 %sp %o7 %fp
	for r := machine.Reg(24); r < 32; r++ {
		s = s.Add(r) // %i0..%i7
	}
	return s
}

// CallUse is the set a call surrogate is assumed to read: outgoing
// arguments, the stack/frame pointers, and the return address.
func CallUse() machine.RegSet {
	return machine.NewRegSet(8, 9, 10, 11, 12, 13, 14, 15, 30)
}

// CallDef is the set a call surrogate may clobber: the caller-saved
// globals and out registers plus the condition codes.
func CallDef() machine.RegSet {
	s := machine.NewRegSet(machine.RegPSR, machine.RegFSR, machine.RegY)
	for r := machine.Reg(1); r < 8; r++ {
		s = s.Add(r) // %g1..%g7
	}
	for r := machine.Reg(8); r < 16; r++ {
		s = s.Add(r) // %o0..%o7
	}
	for r := machine.Reg(0); r < 32; r++ {
		s = s.Add(machine.FloatBase + r)
	}
	return s
}

// Liveness holds per-block live-register sets, indexed by block ID:
// Out[b.ID] is the set live immediately after b.  Use LiveBefore for
// instruction-level queries and LiveAtEdge for edge-level ones — the
// latter is what snippet register scavenging (paper §3.5) consumes.
type Liveness struct {
	In, Out []machine.RegSet
	g       *cfg.Graph
}

// instUseDef returns what one instruction reads and writes for
// liveness purposes.
func instUseDef(in cfg.Inst) (use, def machine.RegSet) {
	return in.MI.Reads(), in.MI.Writes()
}

// blockUseDef computes a block's aggregate use/def.  Call surrogate
// blocks use/def the calling convention's sets.
func blockUseDef(b *cfg.Block) (use, def machine.RegSet) {
	if b.Kind == cfg.KindCallSurrogate {
		return CallUse(), CallDef()
	}
	// Backward accumulation: use = reads before any same-block def.
	for i := len(b.Insts) - 1; i >= 0; i-- {
		u, d := instUseDef(b.Insts[i])
		use = use.Minus(d).Union(u)
		def = def.Union(d)
	}
	return use, def
}

// ComputeLiveness solves backward liveness over the graph; exitLive
// is assumed live at the routine's exit (pass DefaultExitLive() for
// the standard convention, or the full register universe to be fully
// conservative).
func ComputeLiveness(g *cfg.Graph, exitLive machine.RegSet) *Liveness {
	n := len(g.Blocks)
	sets, ud := make([]machine.RegSet, 2*n), make([]machine.RegSet, 2*n)
	lv := &Liveness{In: sets[:n:n], Out: sets[n:], g: g}
	use, def := ud[:n], ud[n:]
	for _, b := range g.Blocks {
		use[b.ID], def[b.ID] = blockUseDef(b)
	}
	rpo := ReversePostorder(g)
	for changed := true; changed; {
		changed = false
		// Postorder (reverse of rpo) converges fastest for a
		// backward problem.
		for i := len(rpo) - 1; i >= 0; i-- {
			b := rpo[i]
			var out machine.RegSet
			if b == g.Exit {
				out = exitLive
			}
			for _, e := range b.Succ {
				out = out.Union(lv.In[e.To.ID])
			}
			in := out.Minus(def[b.ID]).Union(use[b.ID])
			if !out.Equal(lv.Out[b.ID]) || !in.Equal(lv.In[b.ID]) {
				lv.Out[b.ID] = out
				lv.In[b.ID] = in
				changed = true
			}
		}
	}
	return lv
}

// RestoreLiveness rebuilds a Liveness over g from per-block sets
// indexed by block ID (the persistent analysis cache deserializes
// through it); ComputeLiveness remains the way to solve liveness from
// scratch.
func RestoreLiveness(g *cfg.Graph, in, out []machine.RegSet) *Liveness {
	return &Liveness{In: in, Out: out, g: g}
}

// LiveBefore returns the registers live immediately before
// instruction index idx of block b (idx == len(b.Insts) queries the
// block's live-out).
func (lv *Liveness) LiveBefore(b *cfg.Block, idx int) machine.RegSet {
	live := lv.Out[b.ID]
	for i := len(b.Insts) - 1; i >= idx; i-- {
		u, d := instUseDef(b.Insts[i])
		live = live.Minus(d).Union(u)
	}
	return live
}

// LiveAfter returns the registers live immediately after instruction
// index idx of block b.
func (lv *Liveness) LiveAfter(b *cfg.Block, idx int) machine.RegSet {
	return lv.LiveBefore(b, idx+1)
}

// LiveAtEdge returns the registers live while control flows along e:
// the destination's live-in (plus exit liveness on exit edges).
func (lv *Liveness) LiveAtEdge(e *cfg.Edge) machine.RegSet {
	return lv.In[e.To.ID]
}

// DeadAtEdge returns integer registers (excluding %g0, %sp, %fp,
// %o7) free for scavenging along e — the paper's snippet register
// allocation (§3.5) assigns these.
func (lv *Liveness) DeadAtEdge(e *cfg.Edge) machine.RegSet {
	return scavengeable().Minus(lv.LiveAtEdge(e))
}

// DeadBefore returns scavengeable registers dead before instruction
// idx of b.
func (lv *Liveness) DeadBefore(b *cfg.Block, idx int) machine.RegSet {
	return scavengeable().Minus(lv.LiveBefore(b, idx))
}

// CondCodesLiveAtEdge reports whether the integer condition codes
// are live along e — the inquiry Blizzard's fast-path access test
// uses (paper §5).
func (lv *Liveness) CondCodesLiveAtEdge(e *cfg.Edge) bool {
	return lv.LiveAtEdge(e).Has(machine.RegPSR)
}

// scavengeable returns the candidate registers snippets may borrow:
// the integer file minus the hardwired zero, stack/frame pointers,
// and the return-address register.
func scavengeable() machine.RegSet {
	var s machine.RegSet
	for r := machine.Reg(1); r < 32; r++ {
		s = s.Add(r)
	}
	return s.Remove(14).Remove(30).Remove(15) // %sp %fp %o7
}
