// Package core is EEL's editing engine — the paper's primary
// contribution (§3.3.1, §3.5, and the executable/routine abstractions
// of §3.1/§3.2).  It discovers and refines routines in an executable,
// builds their normalized CFGs (resolving indirect jumps by slicing),
// accumulates batch edits (snippets on edges and around
// instructions, deletions), and produces an edited executable:
// blocks and snippets laid out to minimize jumps, control-transfer
// displacements adjusted, unedited delay slots folded back, dispatch
// tables rewritten to edited locations, and run-time address
// translation generated for the transfers static analysis cannot
// resolve.
package core

import (
	"fmt"

	"eel/internal/machine"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Snippet encapsulates foreign code added to an executable (paper
// §3.5).  The body is machine code written with placeholder
// registers; at each insertion point EEL assigns dead registers to
// the placeholders (register scavenging) and, when too few are dead,
// wraps the body with spill code.  A snippet may carry an alternate
// body to use where the integer condition codes are live — the
// mechanism behind Blizzard's cc-aware access test (§5).
type Snippet struct {
	// Body is the code template.
	Body []uint32
	// AllocRegs lists the placeholder registers appearing in Body
	// that need real (dead) registers assigned.
	AllocRegs []machine.Reg
	// Forbid lists registers that must not be assigned even if dead
	// (the paper's second register set).
	Forbid machine.RegSet
	// ClobbersCC declares that Body overwrites the condition codes;
	// if unset it is derived from the body's instructions.
	ClobbersCC bool
	// CCAlt is an alternate, cc-preserving body used where the
	// condition codes are live.  If nil and the codes are live, the
	// insertion fails (condition codes cannot be spilled in user
	// code on SPARC V8).
	CCAlt []uint32
	// Callback, if set, runs after register allocation and layout,
	// when the snippet's final address is known; it may rewrite the
	// instantiated words in place but must not change their number
	// (paper §3.5's call-back).
	Callback func(words []uint32, addr uint32, assign map[machine.Reg]machine.Reg)
}

// NewSnippet builds a snippet from assembled words.
func NewSnippet(body []uint32, alloc []machine.Reg) *Snippet {
	return &Snippet{Body: body, AllocRegs: alloc}
}

// bodyClobbersCC reports whether any word writes the condition codes.
func bodyClobbersCC(dec *spawn.TableDecoder, words []uint32) bool {
	for _, w := range words {
		if dec.WritesPSR(w) {
			return true
		}
	}
	return false
}

// placed is an instantiated snippet occurrence: registers assigned,
// spill wrapping applied, ready to emit.
type placed struct {
	words   []uint32
	assign  map[machine.Reg]machine.Reg
	snip    *Snippet
	spilled bool
	ccAlt   bool
}

func (p *placed) size() int { return len(p.words) }

// runCallback applies the snippet's callback at the final address.
func (p *placed) runCallback(addr uint32) {
	if p.snip != nil && p.snip.Callback != nil {
		p.snip.Callback(p.words, addr, p.assign)
	}
}

// ScavengeStats counts snippet-insertion outcomes (experiments
// E10/E11 and the scavenge-vs-spill ablation).
type ScavengeStats struct {
	// Sites is the number of snippet instantiations.
	Sites int
	// Scavenged sites found enough dead registers.
	Scavenged int
	// Spilled sites needed stack spill wrapping.
	Spilled int
	// CCLive sites had live condition codes (and used the alternate
	// body).
	CCLive int
}

// scavengeUniverse is the set snippets may borrow from: the integer
// file minus %g0, %sp, %fp, %o7, and the EEL-reserved scratch pair
// %g6/%g7 (used by run-time translation stubs).
func scavengeUniverse() machine.RegSet {
	var s machine.RegSet
	for r := machine.Reg(1); r < 32; r++ {
		s = s.Add(r)
	}
	return s.Remove(6).Remove(7).Remove(14).Remove(15).Remove(30)
}

// PickPlaceholders returns n distinct integer registers suitable as
// snippet placeholder names at a site that also references the given
// instruction's own registers.  Placeholder names must be disjoint
// from every real register the snippet body mentions: register
// substitution rewrites *names*, so a template that used %l0 as a
// placeholder while also reading the program's real %l0 would have
// the real reference rewritten too.
func PickPlaceholders(inst *machine.Inst, n int) ([]machine.Reg, error) {
	avoid := inst.Reads().Union(inst.Writes())
	var out []machine.Reg
	scavengeUniverse().Minus(avoid).ForEach(func(r machine.Reg) {
		if len(out) < n {
			out = append(out, r)
		}
	})
	if len(out) < n {
		return nil, fmt.Errorf("core: cannot find %d placeholder registers", n)
	}
	return out, nil
}

// instantiate allocates registers for s at a point where live is the
// live-register set.  When scavenge is false (ablation), every
// placeholder is spilled.
func instantiate(dec *spawn.TableDecoder, s *Snippet, live machine.RegSet, scavenge bool, stats *ScavengeStats) (*placed, error) {
	stats.Sites++
	body := s.Body
	usedAlt := false
	if (s.ClobbersCC || bodyClobbersCC(dec, s.Body)) && live.Has(machine.RegPSR) {
		if s.CCAlt == nil {
			return nil, fmt.Errorf("core: snippet clobbers live condition codes and has no cc-preserving body")
		}
		body = s.CCAlt
		usedAlt = true
		stats.CCLive++
		if bodyClobbersCC(dec, body) {
			return nil, fmt.Errorf("core: cc-preserving snippet body still clobbers the condition codes")
		}
	}

	assign := map[machine.Reg]machine.Reg{}
	var chosen machine.RegSet
	var spillRegs []machine.Reg

	candidates := scavengeUniverse().Minus(live).Minus(s.Forbid)
	for _, ph := range s.AllocRegs {
		var got machine.Reg
		found := false
		if scavenge {
			candidates.Minus(chosen).ForEach(func(r machine.Reg) {
				if !found {
					got, found = r, true
				}
			})
		}
		if !found {
			// No dead register: pick any allowed register and spill
			// it around the snippet (paper §3.5: "EEL wraps the
			// snippet with code to spill registers to the stack").
			spillPool := scavengeUniverse().Minus(s.Forbid).Minus(chosen)
			spillPool.ForEach(func(r machine.Reg) {
				if !found {
					got, found = r, true
				}
			})
			if !found {
				return nil, fmt.Errorf("core: no registers available for snippet")
			}
			spillRegs = append(spillRegs, got)
		}
		assign[ph] = got
		chosen = chosen.Add(got)
	}

	// Simultaneous substitution: a placeholder may be assigned a
	// register that is itself another placeholder's name.
	words := make([]uint32, len(body))
	for i, w := range body {
		words[i] = dec.SubstRegs(w, assign)
	}

	if len(spillRegs) > 0 {
		wrapped, err := wrapSpill(words, spillRegs)
		if err != nil {
			return nil, err
		}
		words = wrapped
		stats.Spilled++
	} else {
		stats.Scavenged++
	}
	return &placed{words: words, assign: assign, snip: s, spilled: len(spillRegs) > 0, ccAlt: usedAlt}, nil
}

// wrapSpill surrounds body with stack spill/reload of regs.  The
// frame is popped before the body would need it, so snippet bodies
// must not address the stack (documented limitation, matching the
// paper's note that call-backs adjust sp-recording code).
func wrapSpill(body []uint32, regs []machine.Reg) ([]uint32, error) {
	const frame = 96 // standard minimal SPARC frame, keeps %sp aligned
	out := make([]uint32, 0, len(body)+2*len(regs)+2)
	push, err := sparc.EncodeOp3Imm("add", sparc.RegSP, sparc.RegSP, -frame)
	if err != nil {
		return nil, err
	}
	out = append(out, push)
	for i, r := range regs {
		st, err := sparc.EncodeOp3Imm("st", r, sparc.RegSP, int32(64+4*i))
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	out = append(out, body...)
	for i, r := range regs {
		ld, err := sparc.EncodeOp3Imm("ld", r, sparc.RegSP, int32(64+4*i))
		if err != nil {
			return nil, err
		}
		out = append(out, ld)
	}
	pop, err := sparc.EncodeOp3Imm("add", sparc.RegSP, sparc.RegSP, frame)
	if err != nil {
		return nil, err
	}
	out = append(out, pop)
	return out, nil
}
