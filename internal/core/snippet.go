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
	"maps"

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
// spill wrapping applied, its words in its plan's word array.
type placed struct {
	off, n int32 // the words are routinePlan.snippetWords[off : off+n]
	snip   *Snippet
	// assign is the register assignment, kept only for a Callback.
	assign map[machine.Reg]machine.Reg
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

// PickPlaceholders returns n distinct integer registers suitable as
// snippet placeholder names at a site that also references the given
// instruction's own registers.  Placeholder names must be disjoint
// from every real register the snippet body mentions: register
// substitution rewrites *names*, so a template that used %l0 as a
// placeholder while also reading the program's real %l0 would have
// the real reference rewritten too.  Names come from abi's
// Scavengeable set, which holds no register a body uses for its fixed
// meaning (zero, stack, frame, link, the editor's reserved pair).
func PickPlaceholders(abi *machine.ABI, inst *machine.Inst, n int) ([]machine.Reg, error) {
	free := abi.Scavengeable().Minus(inst.Reads()).Minus(inst.Writes())
	if free.Len() < n {
		return nil, fmt.Errorf("core: cannot find %d placeholder registers", n)
	}
	return free.Regs()[:n:n], nil
}

// instantiate allocates registers for s at a point where live is the
// live-register set and appends its words to the plan's word array.
// Without scavenging (ablation), every placeholder is spilled.
func (m *measurer) instantiate(s *Snippet, live machine.RegSet) (placed, error) {
	dec, stats := m.r.Exec.Dec, &m.r.Exec.Stats
	stats.Sites++
	body := s.Body
	if (s.ClobbersCC || bodyClobbersCC(dec, s.Body)) && live.Has(machine.RegPSR) {
		if s.CCAlt == nil {
			return placed{}, fmt.Errorf("core: snippet clobbers live condition codes and has no cc-preserving body")
		}
		body = s.CCAlt
		stats.CCLive++
		if bodyClobbersCC(dec, body) {
			return placed{}, fmt.Errorf("core: cc-preserving snippet body still clobbers the condition codes")
		}
	}

	clear(m.assign)
	var chosen, spills machine.RegSet
	abi := m.g.ABI()
	universe := abi.Scavengeable().Minus(s.Forbid)
	candidates := universe.Minus(live)
	if !m.r.Exec.Scavenge {
		candidates = machine.RegSet{}
	}
	for _, ph := range s.AllocRegs {
		got, found := candidates.Minus(chosen).First()
		if !found {
			// No dead register: pick any allowed register and spill
			// it around the snippet (paper §3.5: "EEL wraps the
			// snippet with code to spill registers to the stack").
			if got, found = universe.Minus(chosen).First(); !found {
				return placed{}, fmt.Errorf("core: no registers available for snippet")
			}
			spills = spills.Add(got)
		}
		m.assign[ph] = got
		chosen = chosen.Add(got)
	}

	words, off := m.plan.snippetWords, len(m.plan.snippetWords)
	var err error
	if !spills.IsEmpty() {
		if words, err = spillCode(words, abi.SP, spills, true); err != nil {
			return placed{}, err
		}
	}
	// Simultaneous substitution: a placeholder may be assigned a
	// register that is itself another placeholder's name.
	for _, w := range body {
		words = append(words, dec.SubstRegs(w, m.assign))
	}
	if spills.IsEmpty() {
		stats.Scavenged++
	} else {
		if words, err = spillCode(words, abi.SP, spills, false); err != nil {
			return placed{}, err
		}
		stats.Spilled++
	}
	m.plan.snippetWords = words
	p := placed{off: int32(off), n: int32(len(words) - off), snip: s}
	if s.Callback != nil {
		p.assign = maps.Clone(m.assign)
	}
	return p, nil
}

// spillCode appends the stack spill of regs, addressed through the
// stack pointer sp, that goes before a snippet body (enter) or the
// reload that goes after it.  Spill regs are picked
// lowest first, so each one's slot is its rank in regs.  The frame is
// popped before the body would need it, so snippet bodies must not
// address the stack (documented limitation, matching the paper's note
// that call-backs adjust sp-recording code).
func spillCode(out []uint32, sp machine.Reg, regs machine.RegSet, enter bool) ([]uint32, error) {
	const frame = 96 // standard minimal SPARC frame, keeps %sp aligned
	op, adjust := "ld", int32(frame)
	if enter {
		op, adjust = "st", -frame
	}
	bump, err := sparc.EncodeOp3Imm("add", sp, sp, adjust)
	if err != nil {
		return nil, err
	}
	if enter {
		out = append(out, bump)
	}
	for slot := int32(64); !regs.IsEmpty(); slot += 4 {
		r, _ := regs.First()
		regs = regs.Remove(r)
		w, err := sparc.EncodeOp3Imm(op, r, sp, slot)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if !enter {
		out = append(out, bump)
	}
	return out, nil
}
