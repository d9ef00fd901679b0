package core

import (
	"encoding/binary"
	"fmt"

	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/sparc"
)

// This file turns an edited CFG back into machine code (§3.3.1):
// blocks are laid out in original order with edited control paths
// diverted through stubs appended at the routine's end, branch and
// call displacements are adjusted to the new layout, unedited delay
// slots get their hoisted instructions folded back, resolved
// indirect jumps keep their dispatch tables (rewritten to edited
// addresses, with per-edge instrumentation redirected through
// stubs), and unresolved indirect transfers go through a run-time
// address-translation table, exactly the fallback the paper
// describes for jumps the slicer cannot analyze.

// targetKind addresses one of three label spaces during emission.
type targetKind uint8

const (
	tBlock targetKind = iota // a block of this routine, by ID
	tOrig                    // an original program address (global map)
	tStub                    // a stub appended to this routine, by index
)

// target is a label: v is a block ID, an original address or a stub
// index, as kind says.
type target struct {
	kind targetKind
	v    uint32
}

// itemKind says how BuildEdited turns an item into words.
type itemKind uint8

const (
	itemWord       itemKind = iota // word, verbatim
	itemBranch                     // word, a pc-relative transfer retargeted to t
	itemOrigOrTrap                 // word (ba,a) retargeted to original address t.v, or UNIMP where it has no edited address
	itemSnippet                    // the placed snippet plan.snippets[word]
	itemTT                         // sethi/or loading the translation table's delta into ABI.Reserved[0]: two words
)

// emitItem is one fixed-size unit of output code.
type emitItem struct {
	kind itemKind
	t    target
	word uint32
}

// The synthetic transfer layout emits (ba,a, retargeted per use) and
// the slot filler.  Encoding a fixed mnemonic with a zero displacement
// cannot fail, and TestEditedBytesPinned holds both words.
var (
	baAnnul, _ = sparc.EncodeBranch("ba", true, 0)
	nop        = sparc.Nop()
)

// tableRedirect retargets dispatch-table entries whose edges carry
// instrumentation: entries holding origTarget are rewritten to the
// stub instead of the target's edited address.
type tableRedirect struct {
	tableAddr  uint32
	origTarget uint32
	stub       int
}

// routinePlan is a measured routine layout: the items to emit, in
// order, and the maps from labels to word offsets.
type routinePlan struct {
	items        []emitItem
	snippets     []placed
	snippetWords []uint32 // every placed snippet's words, back to back
	sizeWords    int
	base         uint32 // the routine's new address, set by BuildEdited
	// hasData marks a routine that contains data: a transfer whose
	// target has no address becomes a trap instead of an error.
	hasData bool

	blockOffset []int32 // word offset by block ID, -1 when not laid out
	stubOffset  []int

	// localMap holds, for each original word from start on, its byte
	// offset in the edited routine, -1 for none.
	start    uint32
	localMap []int32

	redirects []tableRedirect
	tables    []*cfg.IndirectJump
	needTT    bool
}

// resolve returns the edited address of t.
func (p *routinePlan) resolve(e *Executable, t target) (uint32, error) {
	switch t.kind {
	case tBlock:
		if off := p.blockOffset[t.v]; off >= 0 {
			return p.base + uint32(off)*4, nil
		}
		return 0, fmt.Errorf("core: no layout position for block %d", t.v)
	case tStub:
		return p.base + uint32(p.stubOffset[t.v])*4, nil
	}
	a, ok := e.EditedAddr(t.v)
	if !ok {
		return 0, fmt.Errorf("core: no edited address for %#x", t.v)
	}
	return a, nil
}

// emit writes the plan's words into out, the routine's stretch of the
// new text; tt is the translation-table sethi/or pair.
func (p *routinePlan) emit(e *Executable, out []byte, tt [2]uint32) error {
	desc := e.Dec.Desc()
	n := 0 // words written
	for _, it := range p.items {
		at := p.base + uint32(4*n)
		w := it.word
		var err error
		switch it.kind {
		case itemBranch:
			dest, rerr := p.resolve(e, it.t)
			switch {
			case rerr == nil:
				if w, err = desc.Retarget(w, at, dest); err != nil {
					return fmt.Errorf("core: branch span overflow: %w", err)
				}
			// In routines that contain data (garbage decoded under a
			// misleading symbol), and for a "branch" whose target lies
			// outside the text segment (data misread as code, which
			// stripped executables make routinely), the path never
			// executed: emit a trapping word instead of failing.
			case p.hasData || (it.t.kind == tOrig && !e.File.Text().Contains(it.t.v)):
				w = 0 // UNIMP
			default:
				return rerr
			}
		case itemOrigOrTrap:
			if dest, ok := e.EditedAddr(it.t.v); !ok {
				w = 0 // UNIMP: faults if ever reached
			} else if w, err = desc.Retarget(w, at, dest); err != nil {
				return err
			}
		case itemSnippet:
			s := &p.snippets[w]
			words := p.snippetWords[s.off : s.off+s.n : s.off+s.n]
			if s.snip.Callback != nil {
				s.snip.Callback(words, at, s.assign)
			}
			for _, sw := range words {
				binary.BigEndian.PutUint32(out[4*n:], sw)
				n++
			}
			continue
		case itemTT:
			binary.BigEndian.PutUint32(out[4*n:], tt[0])
			n++
			w = tt[1]
		}
		binary.BigEndian.PutUint32(out[4*n:], w)
		n++
	}
	return nil
}

// measurer accumulates the plan.
type measurer struct {
	r     *Routine
	g     *cfg.Graph
	lv    *dataflow.Liveness
	plan  *routinePlan
	stubs []path // deferred stub bodies, measured after main code
	cur   int    // current word offset

	assign map[machine.Reg]machine.Reg // registers of the snippet being placed, reused per site
	// reads is what a transfer laid out after the code being placed
	// still reads: a resolved indirect jump's operands while its slot
	// and slot edits are hoisted above it.
	reads machine.RegSet
}

// Liveness accessors: under LightAnalysis (the ad-hoc baseline of
// experiment E1) no liveness is computed and every register is
// considered live, so snippets always spill.
func (m *measurer) liveAtEdge(e *cfg.Edge) machine.RegSet {
	if m.lv == nil {
		return allRegsLive()
	}
	return m.lv.LiveAtEdge(e).Union(m.reads)
}

func (m *measurer) liveBefore(b *cfg.Block, idx int) machine.RegSet {
	if m.lv == nil {
		return allRegsLive()
	}
	return m.lv.LiveBefore(b, idx).Union(m.reads)
}

// allRegsLive returns the integer universe minus the condition
// codes (snippets that avoid cc still work without analysis).
func allRegsLive() machine.RegSet {
	return machine.RegSetFromWords(^uint64(0), 0).Union(machine.FloatRegs()).Remove(machine.RegPSR)
}

// measure lays out routine r's edited code.
func measure(r *Routine, g *cfg.Graph) (*routinePlan, error) {
	words := int(g.End-g.Start) / 4
	m := &measurer{
		r:      r,
		g:      g,
		assign: map[machine.Reg]machine.Reg{},
		plan: &routinePlan{
			items:       make([]emitItem, 0, words+len(g.Blocks)),
			snippets:    make([]placed, 0, len(r.edgeEdits)+len(r.beforeEdits)+len(r.afterEdits)),
			hasData:     g.HasData,
			blockOffset: unset(len(g.Blocks)),
			start:       g.Start,
			localMap:    unset(words),
		},
	}
	if !r.Exec.LightAnalysis {
		if r.live == nil {
			r.live = dataflow.ComputeLiveness(g)
		}
		m.lv = r.live
	}
	// Normal blocks in original address order keep fall-throughs
	// adjacent (the paper's "laying out its blocks and snippets to
	// minimize unnecessary jumps"); the builder and the analysis
	// cache's codec both list them in that order.
	order := make([]*cfg.Block, 0, len(g.Blocks))
	for _, b := range g.Blocks {
		if b.Kind == cfg.KindNormal {
			order = append(order, b)
		}
	}
	for i, b := range order {
		var next *cfg.Block
		if i+1 < len(order) {
			next = order[i+1]
		}
		if err := m.block(b, next); err != nil {
			return nil, err
		}
	}
	// Now measure the deferred stubs.
	m.plan.stubOffset = make([]int, len(m.stubs))
	for i, p := range m.stubs {
		m.plan.stubOffset[i] = m.cur
		if err := m.emitPathBody(p); err != nil {
			return nil, err
		}
		m.jumpTo(m.pathTarget(p))
	}
	m.plan.sizeWords = m.cur
	return m.plan, nil
}

// unset returns n offsets that are all -1, "not laid out".
func unset(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// add appends an item size words long at the current offset.
func (m *measurer) add(it emitItem, size int) {
	m.plan.items = append(m.plan.items, it)
	m.cur += size
}

// word appends a verbatim word.
func (m *measurer) word(w uint32) { m.add(emitItem{word: w}, 1) }

// record maps an original address to the current offset; normal
// instruction occurrences overwrite delay-slot copies.
func (m *measurer) record(addr uint32, primary bool) {
	off := &m.plan.localMap[(addr-m.plan.start)/4]
	if *off < 0 || primary {
		*off = int32(m.cur * 4)
	}
}

// origWord emits the instruction's original encoding verbatim.
func (m *measurer) origWord(in cfg.Inst, primary bool) {
	m.record(in.Addr, primary)
	m.word(in.MI.Word())
}

// snippets instantiates and emits a list of snippets at a point with
// the given live set.
func (m *measurer) snippets(list []*Snippet, live machine.RegSet) error {
	for _, s := range list {
		p, err := m.instantiate(s, live)
		if err != nil {
			return err
		}
		m.add(emitItem{kind: itemSnippet, word: uint32(len(m.plan.snippets))}, int(p.n))
		m.plan.snippets = append(m.plan.snippets, p)
	}
	return nil
}

// edgeSnippets emits the snippets along e.
func (m *measurer) edgeSnippets(e *cfg.Edge) error {
	if list := m.r.edgeEdits[e]; len(list) > 0 {
		return m.snippets(list, m.liveAtEdge(e))
	}
	return nil
}

// instSnippets emits list before instruction idx of b (idx ==
// len(b.Insts) is after the last); liveness is asked only when there
// is a snippet to place.
func (m *measurer) instSnippets(list []*Snippet, b *cfg.Block, idx int) error {
	if len(list) == 0 {
		return nil
	}
	return m.snippets(list, m.liveBefore(b, idx))
}

// branchTo emits a pc-relative control-transfer word retargeted to t.
func (m *measurer) branchTo(word uint32, t target) {
	m.add(emitItem{kind: itemBranch, t: t, word: word}, 1)
}

// jumpTo emits a synthetic unconditional transfer (ba,a — one word,
// no delay-slot execution) to t.
func (m *measurer) jumpTo(t target) { m.branchTo(baAnnul, t) }

// jumpToOrigOrTrap emits ba,a to an original address when it has an
// edited location, or an illegal word otherwise.  It is used where a
// block statically falls off the routine's end: when a routine
// follows, control continues there; when nothing is mapped (the text
// ends, or only data follows — typical after an exit system call),
// execution must never arrive, and the illegal word turns a
// mis-analysis into a loud fault instead of silent corruption.
func (m *measurer) jumpToOrigOrTrap(orig uint32) {
	m.add(emitItem{kind: itemOrigOrTrap, t: target{tOrig, orig}, word: baAnnul}, 1)
}

// jumpToIfNotNext emits ba,a unless dest is the next laid-out block.
func (m *measurer) jumpToIfNotNext(dest *cfg.Block, next *cfg.Block) {
	if dest != next {
		m.jumpTo(blockTarget(dest))
	}
}

func blockTarget(b *cfg.Block) target { return target{tBlock, uint32(b.ID)} }

// path is one way out of a control transfer: the edge leaving the
// block, an optional hoisted delay-slot block, the edge leaving it,
// and the destination.
type path struct {
	e1   *cfg.Edge
	ds   *cfg.Block
	e2   *cfg.Edge
	dest *cfg.Block // graph Exit for interprocedural transfers
	orig uint32     // original destination address when dest is Exit
}

// pathFor decodes the CFG shape downstream of edge e.
func (m *measurer) pathFor(e *cfg.Edge, origDest uint32) path {
	p := path{e1: e, dest: e.To, orig: origDest}
	if e.To.Kind == cfg.KindDelaySlot {
		p.ds = e.To
		p.e2 = e.To.Succ[0]
		p.dest = p.e2.To
	}
	return p
}

// edited reports whether any part of the path carries edits.
func (m *measurer) edited(p path) bool {
	r := m.r
	if len(r.edgeEdits[p.e1]) > 0 {
		return true
	}
	if p.e2 != nil && len(r.edgeEdits[p.e2]) > 0 {
		return true
	}
	if p.ds != nil {
		k := instKey{p.ds, 0}
		if len(r.beforeEdits[k]) > 0 || len(r.afterEdits[k]) > 0 || r.deleted[k] {
			return true
		}
	}
	return false
}

// emitPathBody emits a path's instrumentation and delay-slot copy
// (everything but the final transfer).
func (m *measurer) emitPathBody(p path) error {
	if err := m.edgeSnippets(p.e1); err != nil {
		return err
	}
	if p.ds != nil {
		if err := m.instWithEdits(p.ds, 0, false); err != nil {
			return err
		}
	}
	if p.e2 != nil {
		return m.edgeSnippets(p.e2)
	}
	return nil
}

// pathTarget returns where the path transfers to.
func (m *measurer) pathTarget(p path) target {
	if p.dest == m.g.Exit {
		return target{tOrig, p.orig}
	}
	return blockTarget(p.dest)
}

// instWithEdits emits one instruction with its before/after snippets,
// honouring deletion.
func (m *measurer) instWithEdits(b *cfg.Block, idx int, primary bool) error {
	k := instKey{b, idx}
	if err := m.instSnippets(m.r.beforeEdits[k], b, idx); err != nil {
		return err
	}
	if m.r.deleted[k] {
		m.record(b.Insts[idx].Addr, primary)
	} else {
		m.origWord(b.Insts[idx], primary)
	}
	return m.instSnippets(m.r.afterEdits[k], b, idx+1)
}

// stub defers path p's body and transfer to the routine's end and
// returns the stub's index.
func (m *measurer) stub(p path) int {
	m.stubs = append(m.stubs, p)
	return len(m.stubs) - 1
}

// block lays out one normal block; next is the block laid out after
// it (for fall-through suppression).
func (m *measurer) block(b *cfg.Block, next *cfg.Block) error {
	m.plan.blockOffset[b.ID] = int32(m.cur)
	last := len(b.Insts) - 1
	isCTI := last >= 0 && b.Insts[last].MI.Category().IsControl()

	bodyEnd := len(b.Insts)
	if isCTI {
		bodyEnd = last
	}
	for i := 0; i < bodyEnd; i++ {
		if err := m.instWithEdits(b, i, true); err != nil {
			return err
		}
	}
	if !isCTI {
		// Fall-through block: one successor edge.  A block that ends
		// at an annul keeps the word it skips right behind it, verbatim;
		// the edge leaves past that word.
		in := b.Insts[last]
		if in.MI.EndsBlock() {
			// The CFG makes an annul whose successor lies outside
			// the routine data, so the skipped word is text.
			skipped, _ := m.r.Exec.InstAt(in.Addr + 4)
			m.word(skipped.Word())
		}
		if len(b.Succ) == 0 {
			return nil
		}
		e := b.Succ[0]
		if err := m.edgeSnippets(e); err != nil {
			return err
		}
		if e.To == m.g.Exit {
			// Fell off the routine into the next one (or data).
			if !b.HasData { // else nothing to transfer to; data follows
				m.jumpToOrigOrTrap(in.Addr + 4*uint32(in.MI.Span()))
			}
			return nil
		}
		m.jumpToIfNotNext(e.To, next)
		return nil
	}
	return m.terminator(b, last, next)
}

// terminator lowers the block's final control transfer.
func (m *measurer) terminator(b *cfg.Block, last int, next *cfg.Block) error {
	in := b.Insts[last]
	inst := in.MI
	a := in.Addr
	word := inst.Word()
	k := instKey{b, last}

	// Instrumentation before the transfer itself.
	if err := m.instSnippets(m.r.beforeEdits[k], b, last); err != nil {
		return err
	}

	// Classify outgoing paths.
	var taken, fall path
	hasTaken, hasFall := false, false
	origTarget, _ := inst.StaticTarget(a)
	fallAddr := a + 4*uint32(inst.Span())
	for _, e := range b.Succ {
		switch e.Kind {
		case cfg.EdgeTaken:
			taken = m.pathFor(e, origTarget)
			hasTaken = true
		case cfg.EdgeFall:
			fall = m.pathFor(e, fallAddr)
			hasFall = true
		case cfg.EdgeExit:
			// Unconditional transfer out of the routine, or the
			// taken/fall side of a branch leaving the routine; the
			// original address distinguishes them below.
			p := m.pathFor(e, origTarget)
			if inst.Category() == machine.CatBranch && hasTaken {
				p.orig = fallAddr
				fall, hasFall = p, true
			} else {
				taken, hasTaken = p, true
			}
		}
	}

	switch inst.Category() {
	case machine.CatBranch:
		return m.lowerBranch(b, in, taken, fall, hasTaken, hasFall, next)
	case machine.CatJumpDirect:
		if !hasTaken {
			return fmt.Errorf("core: direct jump at %#x has no path", a)
		}
		// A jump through an address operand (a literal jmpl) is
		// always re-synthesized: its word has no displacement field
		// to adjust.
		_, literal := inst.Addr()
		clean := m.r.Exec.FoldDelaySlots && !m.edited(taken) && !literal
		if clean && taken.ds != nil {
			m.record(a, true)
			m.branchTo(word, m.pathTarget(taken))
			m.origWord(taken.ds.Insts[0], false)
			return nil
		}
		m.record(a, true)
		if err := m.emitPathBody(taken); err != nil {
			return err
		}
		// Replace the original transfer (ba or literal jmpl) with a
		// synthetic ba,a; a literal jmpl's stale address registers
		// become dead code.
		m.jumpTo(m.pathTarget(taken))
		return nil
	case machine.CatCallDirect, machine.CatCallIndirect:
		return m.lowerCall(b, in, next)
	case machine.CatReturn:
		m.record(a, true)
		m.word(word)
		if len(b.Succ) > 0 {
			if p := m.pathFor(b.Succ[0], 0); p.ds != nil {
				m.origWord(p.ds.Insts[0], false)
			}
		}
		return nil
	case machine.CatJumpIndirect:
		return m.lowerIndirectJump(b, in)
	}
	return fmt.Errorf("core: unexpected terminator %s at %#x", inst, a)
}

// lowerBranch handles conditional branches: the clean case re-emits
// the original branch + slot with an adjusted displacement (folding
// the hoisted slot back, §3.3); the edited case lowers to an
// annulled branch to a taken-path stub with the fall path inline.
func (m *measurer) lowerBranch(b *cfg.Block, in cfg.Inst, taken, fall path, hasTaken, hasFall bool, next *cfg.Block) error {
	if !hasTaken || !hasFall {
		return fmt.Errorf("core: branch at %#x lacks taken/fall paths", in.Addr)
	}
	clean := m.r.Exec.FoldDelaySlots && !m.edited(taken) && !m.edited(fall)
	if clean {
		m.record(in.Addr, true)
		m.branchTo(in.MI.Word(), m.pathTarget(taken))
		// Original slot word follows (it exists in the original
		// encoding whether or not the annul bit is set).
		var ds *cfg.Block
		if taken.ds != nil {
			ds = taken.ds
		} else if fall.ds != nil {
			ds = fall.ds
		}
		if ds != nil {
			m.origWord(ds.Insts[0], false)
		} else {
			// ba,a-style: no slot was hoisted; keep original layout
			// with a nop placeholder for the slot position.
			m.word(nop)
		}
		m.fallOn(fall, next)
		return nil
	}

	// Edited lowering: bcond,a to a stub carrying the taken path;
	// the annulled nop in the slot vanishes on the untaken path.
	m.record(in.Addr, true)
	// Force the annul bit so the nop below only runs when taken.
	wA, err := forceAnnul(in.MI.Word())
	if err != nil {
		return err
	}
	m.branchTo(wA, target{tStub, uint32(m.stub(taken))})
	m.word(nop)
	// Fall path inline.
	if err := m.emitPathBody(fall); err != nil {
		return err
	}
	m.fallOn(fall, next)
	return nil
}

// fallOn continues along a branch's fall path: out of the routine, or
// to its block unless that is laid out next.
func (m *measurer) fallOn(fall path, next *cfg.Block) {
	if fall.dest == m.g.Exit {
		m.jumpTo(target{tOrig, fall.orig})
	} else {
		m.jumpToIfNotNext(fall.dest, next)
	}
}

// forceAnnul sets a branch word's annul bit.
func forceAnnul(word uint32) (uint32, error) {
	f, ok := sparc.Desc().Field("aflag")
	if !ok {
		return 0, fmt.Errorf("core: no aflag field")
	}
	return f.Insert(word, 1), nil
}

// lowerCall emits call/jmpl-call, its delay slot, return-edge
// instrumentation (which lands exactly at the callee's return point,
// call+8), and the continuation.
func (m *measurer) lowerCall(b *cfg.Block, in cfg.Inst, next *cfg.Block) error {
	inst := in.MI
	m.record(in.Addr, true)

	// Locate slot, surrogate, and return edge.
	var ds *cfg.Block
	e := b.Succ[0]
	if e.To.Kind == cfg.KindDelaySlot {
		ds = e.To
		e = ds.Succ[0]
	}
	surr := e.To
	if surr.Kind != cfg.KindCallSurrogate {
		return fmt.Errorf("core: call at %#x lacks surrogate", in.Addr)
	}
	retEdge := surr.Succ[0]

	if inst.Category() == machine.CatCallDirect {
		m.branchTo(inst.Word(), target{tOrig, surr.CallTarget})
	} else {
		// Indirect call: translate the target through the run-time
		// table using the calling convention's reserved pair.
		if err := m.translateSeq(inst, true); err != nil {
			if m.g.HasData {
				m.word(0) // never-executed garbage
				return nil
			}
			return err
		}
	}
	if ds != nil {
		m.origWord(ds.Insts[0], false)
	} else {
		m.word(nop)
	}
	// Return point: instrumentation on the surrogate's return edge.
	if err := m.edgeSnippets(retEdge); err != nil {
		return err
	}
	if retEdge.To == m.g.Exit {
		// Call in tail position: if the callee returns, it returns
		// past the routine's end; transfer to the original
		// fall-through address.
		m.jumpToOrigOrTrap(in.Addr + 8)
	} else {
		m.jumpToIfNotNext(retEdge.To, next)
	}
	return nil
}

// translateSeq emits the run-time address translation for an
// indirect transfer through the reserved pair (delta, tgt):
// tgt := original target; tgt := TT[tgt + delta]; jmpl tgt (link
// register preserved from the original instruction).
func (m *measurer) translateSeq(inst *machine.Inst, isCall bool) error {
	m.plan.needTT = true
	delta, tgt := m.g.ABI().Reserved[0], m.g.ABI().Reserved[1]
	a, ok := inst.Addr()
	if !ok {
		return fmt.Errorf("core: indirect transfer %s has no address operand", inst)
	}
	for i, r := range []machine.Reg{a.Base, a.Index} {
		if (i == 0 || a.HasIndex) && (r == delta || r == tgt) {
			return fmt.Errorf("core: indirect transfer uses reserved scratch register %s", m.g.Decoder().RegName(r))
		}
	}
	computeTarget, err := sparc.EncodeAddr("add", tgt, a)
	if err != nil {
		return err
	}
	m.word(computeTarget)

	// sethi %hi(TT delta), delta ; or delta, %lo(TT delta), delta —
	// the table's delta is known only at emission.
	m.add(emitItem{kind: itemTT}, 2)

	ld, err := sparc.EncodeOp3("ld", tgt, tgt, delta)
	if err != nil {
		return err
	}
	m.word(ld)

	jmpl, err := sparc.EncodeOp3Imm("jmpl", a.Link, tgt, 0)
	if err != nil {
		return err
	}
	m.word(jmpl)
	return nil
}

// lowerIndirectJump handles register-indirect jumps: resolved ones
// keep the original jump with the dispatch table rewritten (per-edge
// instrumentation diverts table entries through stubs); unresolved
// ones translate at run time.
func (m *measurer) lowerIndirectJump(b *cfg.Block, in cfg.Inst) error {
	inst := in.MI
	var ij *cfg.IndirectJump
	for _, cand := range m.g.IndirectJumps {
		if cand.Addr == in.Addr {
			ij = cand
			break
		}
	}
	if ij == nil {
		return fmt.Errorf("core: indirect jump at %#x unregistered", in.Addr)
	}

	// Locate the slot block and outgoing edges.
	var ds *cfg.Block
	fanout := b.Succ
	var e1 *cfg.Edge
	if len(b.Succ) == 1 && b.Succ[0].To.Kind == cfg.KindDelaySlot {
		e1 = b.Succ[0]
		ds = e1.To
		fanout = ds.Succ
	}

	if !ij.Resolved || ij.RuntimeOnly {
		// Run-time translation: the translation sequence reads the
		// jump's operands *before* the transfer, and the original
		// slot instruction stays in the emitted jmpl's delay slot —
		// exactly the original ordering, so even a slot that writes
		// the jump's address register behaves identically.
		m.record(in.Addr, true)
		if err := m.translateSeq(inst, false); err != nil {
			if m.g.HasData {
				// Garbage decoded under a misleading symbol (e.g. a
				// jump "through" the reserved scratch registers):
				// emit a trapping word; the path never executes.
				m.word(0)
				return nil
			}
			return err
		}
		if ds != nil {
			m.origWord(ds.Insts[0], false)
		} else {
			m.word(nop)
		}
		return nil
	}

	// Resolved: pre-slot edge edits and slot edits force hoisting
	// the slot above the jump (safe unless it feeds the jump).
	k := instKey{ds, 0}
	hoist := e1 != nil && (len(m.r.edgeEdits[e1]) > 0 ||
		(ds != nil && (len(m.r.beforeEdits[k]) > 0 || len(m.r.afterEdits[k]) > 0 || m.r.deleted[k])))
	m.record(in.Addr, true)
	if hoist {
		if !ds.Insts[0].MI.Writes().Intersect(inst.Reads()).IsEmpty() {
			return fmt.Errorf("core: cannot hoist delay slot feeding the jump at %#x", in.Addr)
		}
		// Liveness places these snippets after the jump; they run
		// before it, so they must not borrow what it reads.
		m.reads = inst.Reads()
		if err := m.edgeSnippets(e1); err != nil {
			return err
		}
		if err := m.instWithEdits(ds, 0, false); err != nil {
			return err
		}
		m.reads = machine.RegSet{}
	}
	if ij.Literal {
		// Literal-target jump: emit as a direct transfer.
		if !hoist && ds != nil {
			if err := m.instWithEdits(ds, 0, false); err != nil {
				return err
			}
		}
		m.jumpTo(target{tOrig, ij.LiteralTarget})
		return nil
	}
	m.word(inst.Word())
	if hoist || ds == nil {
		m.word(nop)
	} else {
		m.origWord(ds.Insts[0], false)
	}

	// Table bookkeeping: every fan-out edge with edits gets a stub
	// and a redirect; the executable rewrites the table.
	m.plan.tables = append(m.plan.tables, ij)
	for _, e := range fanout {
		if e.To == m.g.Exit || len(m.r.edgeEdits[e]) == 0 {
			continue
		}
		m.plan.redirects = append(m.plan.redirects, tableRedirect{
			tableAddr:  ij.TableAddr,
			origTarget: e.To.Start(),
			stub:       m.stub(path{e1: e, dest: e.To}),
		})
	}
	return nil
}
