package dataflow

import (
	"eel/internal/cfg"
	"eel/internal/machine"
)

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
func blockUseDef(b *cfg.Block, abi *machine.ABI) (use, def machine.RegSet) {
	if b.Kind == cfg.KindCallSurrogate {
		return abi.CallUse, abi.CallDef
	}
	// Backward accumulation: use = reads before any same-block def.
	for i := len(b.Insts) - 1; i >= 0; i-- {
		u, d := instUseDef(b.Insts[i])
		use = use.Minus(d).Union(u)
		def = def.Union(d)
	}
	return use, def
}

// ComputeLiveness solves backward liveness over the graph under its
// machine's calling convention (cfg.Graph.ABI): call surrogates read
// and clobber its call sets, and its exit set is live at the
// routine's exit.
func ComputeLiveness(g *cfg.Graph) *Liveness {
	n := len(g.Blocks)
	sets, ud := make([]machine.RegSet, 2*n), make([]machine.RegSet, 2*n)
	lv := &Liveness{In: sets[:n:n], Out: sets[n:], g: g}
	use, def := ud[:n], ud[n:]
	abi := g.ABI()
	for _, b := range g.Blocks {
		use[b.ID], def[b.ID] = blockUseDef(b, abi)
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
				out = abi.ExitLive
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

// DeadAtEdge returns the registers free for scavenging along e: the
// calling convention's Scavengeable set minus what is live there —
// the paper's snippet register allocation (§3.5) assigns these.
func (lv *Liveness) DeadAtEdge(e *cfg.Edge) machine.RegSet {
	return lv.g.ABI().Scavengeable().Minus(lv.LiveAtEdge(e))
}

// DeadBefore returns scavengeable registers dead before instruction
// idx of b.
func (lv *Liveness) DeadBefore(b *cfg.Block, idx int) machine.RegSet {
	return lv.g.ABI().Scavengeable().Minus(lv.LiveBefore(b, idx))
}
