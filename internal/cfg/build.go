package cfg

import (
	"fmt"

	"eel/internal/machine"
)

// BuildError reports a construction failure.
type BuildError struct {
	Addr uint32
	Msg  string
}

func (e *BuildError) Error() string { return fmt.Sprintf("cfg: at %#x: %s", e.Addr, e.Msg) }

// Options refine construction.  IndirectTargets carries the results
// of a prior slicing pass (paper §3.3: "although at the time of
// slicing, the CFG is incomplete ... after finding the table's
// address, EEL builds a precise CFG for the indirect jump"): mapping
// a register-indirect jump's address to its dispatch-table targets
// lets the rebuild reach the case arms and wire precise edges.
type Options struct {
	// IndirectTargets maps jump address → in-routine targets.
	IndirectTargets map[uint32][]uint32
	// Tables maps jump address → its dispatch table, for
	// bookkeeping and later table rewriting.
	Tables map[uint32]TableInfo
	// ForceTranslate marks resolved jumps RuntimeOnly: targets are
	// used to discover code, but the jump still translates its
	// address at run time (light-analysis/ablation mode).
	ForceTranslate bool
}

// TableInfo describes a resolved dispatch table.
type TableInfo struct {
	Addr    uint32
	Len     int
	Literal bool
	Target  uint32 // for Literal resolutions
}

// Build constructs the CFG of the routine occupying [start, end)
// within the text segment, entered at the given entry points.  text is
// the segment decoded by dec (machine.DecodeText): text[i] is the
// instruction at textAddr+4i.  The text segment may extend beyond the
// routine; control transfers leaving [start, end) become OutRefs and
// exit edges.
func Build(dec machine.Decoder, text []*machine.Inst, textAddr uint32, start, end uint32, entries []uint32) (*Graph, error) {
	return BuildWithOptions(dec, text, textAddr, start, end, entries, Options{})
}

// BuildWithOptions is Build with indirect-jump resolutions applied.
func BuildWithOptions(dec machine.Decoder, text []*machine.Inst, textAddr uint32, start, end uint32, entries []uint32, opts Options) (*Graph, error) {
	if start < textAddr || end > textAddr+4*uint32(len(text)) || start > end {
		return nil, &BuildError{start, "routine bounds outside text segment"}
	}
	if textAddr%4 != 0 || start%4 != 0 || end%4 != 0 {
		return nil, &BuildError{start, "routine bounds not word aligned"}
	}
	b := &builder{
		g: &Graph{
			Start: start, End: end, Entries: append([]uint32(nil), entries...),
			Complete: true, dec: dec, abi: machine.ABIOf(dec),
		},
		text:  text,
		base:  textAddr,
		start: start,
		end:   end,
		flags: make([]uint8, (end-start)/4),
		opts:  opts,
	}
	if err := b.reach(); err != nil {
		return nil, err
	}
	// Size the graph from reach's counts: a normal block starts at a
	// leader or after a transfer, and a transfer typically adds one
	// slot or surrogate block and up to three edges.  A short guess
	// costs a second slab, never a move.
	lead := len(entries) + b.leaders
	b.g.Reserve(2+lead+2*b.transfers, lead+3*b.transfers)
	b.g.ByAddr = make(map[uint32]*Block, lead+b.transfers)
	b.insts = make([]Inst, 0, len(b.flags)+b.transfers)
	b.g.Entry = b.g.NewBlock(KindEntry)
	b.g.Exit = b.g.NewBlock(KindExit)
	b.formBlocks()
	b.connect()
	b.g.Link()
	b.findUnreachableTail()
	return b.g, nil
}

type builder struct {
	g     *Graph
	text  []*machine.Inst
	base  uint32
	start uint32
	end   uint32
	flags []uint8 // per routine word, indexed by (addr-start)/4
	opts  Options
	insts []Inst // backs every block's Insts

	leaders, transfers int // reach's counts, which size the graph
}

// Word flags.
const (
	reached   uint8 = 1 << iota
	leader          // starts a block
	delaySlot       // consumed as a delay slot
	dataAt          // reachable invalid word
)

// inRoutine reports whether a is an instruction address of the
// routine; a misaligned address names no instruction.
func (b *builder) inRoutine(a uint32) bool { return a >= b.start && a < b.end && a%4 == 0 }

// is reports whether a is an instruction address of the routine with
// flag f set.
func (b *builder) is(a uint32, f uint8) bool {
	return b.inRoutine(a) && b.flags[(a-b.start)/4]&f != 0
}

// mark sets f on in-routine address a.
func (b *builder) mark(a uint32, f uint8) { b.flags[(a-b.start)/4] |= f }

func (b *builder) instAt(a uint32) *machine.Inst { return b.text[(a-b.base)/4] }

// annuls reports whether in annuls its successor without transferring
// control (SPARC's bn,a): it ends a block but is no transfer.
func annuls(in *machine.Inst) bool { return in.EndsBlock() && !in.Category().IsControl() }

// reach walks all paths from the entry points, marking reachable
// instructions, leaders, delay-slot consumption, and data.
func (b *builder) reach() error {
	work := append([]uint32(nil), b.g.Entries...)
	for _, e := range b.g.Entries {
		if e%4 != 0 {
			return &BuildError{e, "misaligned entry point"}
		}
		if !b.inRoutine(e) {
			return &BuildError{e, "entry point outside routine"}
		}
		b.mark(e, leader)
	}
	// enter makes in-routine address a a leader and walks from it.
	enter := func(a uint32) {
		if b.inRoutine(a) {
			b.leaders++
			b.mark(a, leader)
			work = append(work, a)
		}
	}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		for b.inRoutine(a) && !b.is(a, reached) {
			b.mark(a, reached)
			inst := b.instAt(a)
			if !inst.Valid() {
				b.mark(a, dataAt)
				b.g.HasData = true
				break
			}
			if !inst.EndsBlock() {
				a += 4
				continue
			}
			// A control transfer or an annul: account for the word
			// after it, a delay slot or the word the annul skips.
			b.transfers++
			dsAddr := a + 4
			hasDS := inst.DelaySlots() == 1 && !inst.IsAnnulledUncond()
			if inst.Span() == 2 {
				// One whose next word lies past the routine is data,
				// and so is a transfer whose slot annuls (it would
				// annul the target's first word; no compiler emits
				// it).  That slot stays unreached, left to whatever
				// else reaches the word.
				if dsAddr >= b.end || hasDS && annuls(b.instAt(dsAddr)) {
					b.mark(a, dataAt)
					b.g.HasData = true
					break
				}
				if hasDS {
					b.mark(dsAddr, reached|delaySlot)
					ds := b.instAt(dsAddr)
					if !ds.Valid() {
						b.mark(dsAddr, dataAt)
						b.g.HasData = true
					} else if ds.Category().IsControl() {
						// A control transfer in a delay slot would
						// need the paper's repeated normalization;
						// real compilers do not emit it, so treat
						// the region as data (it shows up when a
						// data table carries a routine-like symbol).
						b.mark(a, dataAt)
						b.mark(dsAddr, dataAt)
						b.g.HasData = true
						b.g.Warnings = append(b.g.Warnings,
							fmt.Sprintf("control transfer in delay slot at %#x treated as data", dsAddr))
						break
					}
				}
			}
			fall := a + 4*uint32(inst.Span())
			if annuls(inst) {
				enter(fall) // the word it skips is on no path
			}
			// Returns have no successors inside the routine.
			switch inst.Category() {
			case machine.CatBranch, machine.CatJumpDirect:
				if t, ok := inst.StaticTarget(a); ok && b.inRoutine(t) {
					enter(t)
				} else if ok {
					b.g.OutRefs = append(b.g.OutRefs, OutRef{From: a, Target: t})
				}
				if inst.Category() == machine.CatBranch {
					enter(fall)
				}
			case machine.CatCallDirect, machine.CatCallIndirect:
				if t, ok := inst.StaticTarget(a); ok {
					b.g.OutRefs = append(b.g.OutRefs, OutRef{From: a, Target: t, IsCall: true})
				}
				enter(fall)
			case machine.CatJumpIndirect:
				// Targets from a prior slicing pass become leaders;
				// otherwise the jump has no known successors yet.
				for _, t := range b.opts.IndirectTargets[a] {
					enter(t)
				}
			}
			break
		}
	}
	return nil
}

// formBlocks groups content addresses, in address order, into maximal
// straight-line blocks.  Content is the reached, valid words, less
// those consumed as delay slots unless they are also explicit transfer
// targets.
func (b *builder) formBlocks() {
	var cur *Block
	first := 0
	for i, f := range b.flags {
		if f&reached == 0 || f&dataAt != 0 || f&(delaySlot|leader) == delaySlot {
			cur = nil
			continue
		}
		a := b.start + 4*uint32(i)
		if cur == nil || f&leader != 0 {
			cur, first = b.g.NewBlock(KindNormal), len(b.insts)
			b.g.ByAddr[a] = cur
		}
		mi := b.instAt(a)
		b.insts = append(b.insts, Inst{Addr: a, MI: mi})
		cur.Insts = b.insts[first:len(b.insts):len(b.insts)]
		if mi.EndsBlock() {
			cur = nil // force a new block after the transfer or annul
		}
	}
}

// blockAt returns the block starting at a, splitting is never needed
// because all transfer targets were leaders during formation.
func (b *builder) blockAt(a uint32) *Block { return b.g.ByAddr[a] }

// dsBlock creates a delay-slot block holding the instruction at
// dsAddr.
func (b *builder) dsBlock(dsAddr uint32, uneditable bool) *Block {
	blk := b.g.NewBlock(KindDelaySlot)
	b.insts = append(b.insts, Inst{Addr: dsAddr, MI: b.instAt(dsAddr)})
	blk.Insts = b.insts[len(b.insts)-1 : len(b.insts) : len(b.insts)]
	blk.Uneditable = uneditable
	return blk
}

// connect builds edges, hoisting delay slots per Fig 3.
func (b *builder) connect() {
	g := b.g
	for _, entry := range g.Entries {
		if blk := b.blockAt(entry); blk != nil {
			g.NewEdge(g.Entry, blk, EdgeEntry, false)
		}
	}
	// formBlocks made every block after the entry and exit; ranging
	// over that prefix skips the slot and surrogate blocks connecting
	// creates.
	for _, blk := range g.Blocks[2:] {
		last := blk.Last()
		if last == nil {
			continue
		}
		a := last.Addr
		inst := last.MI
		if !inst.Category().IsControl() {
			// Fell off the block: leader split, data, routine end,
			// or past the word an annulling instruction skips.
			next := a + 4*uint32(inst.Span())
			if b.is(next, dataAt) {
				blk.HasData = true
				g.NewEdge(blk, g.Exit, EdgeExit, true)
				continue
			}
			if nb := b.blockAt(next); nb != nil {
				g.NewEdge(blk, nb, EdgeFall, false)
			} else {
				// Falls out of the routine into the next one.
				g.OutRefs = append(g.OutRefs, OutRef{From: a, Target: next})
				g.NewEdge(blk, g.Exit, EdgeExit, true)
			}
			continue
		}

		delay := inst.DelaySlots()
		dsAddr := a + 4
		hasDS := delay == 1 && !inst.IsAnnulledUncond() && !b.is(dsAddr, dataAt)
		fall := a + 4*uint32(inst.Span())
		target, hasTarget := inst.StaticTarget(a)

		// linkVia routes from→…→to through a fresh delay-slot copy
		// when the transfer executes its slot on that path.
		linkVia := func(withDS bool, to *Block, kind EdgeKind, unedit bool) {
			from := blk
			if withDS {
				ds := b.dsBlock(dsAddr, unedit)
				g.NewEdge(from, ds, kind, unedit)
				from = ds
			}
			g.NewEdge(from, to, kind, unedit)
		}
		takenDest := func() (*Block, bool) { // in-routine destination
			if !hasTarget {
				return nil, false
			}
			blkT := b.blockAt(target)
			return blkT, blkT != nil
		}

		switch inst.Category() {
		case machine.CatBranch:
			// Taken path always executes the slot; the untaken path
			// executes it only when the annul bit is clear (Fig 3).
			if dest, ok := takenDest(); ok {
				linkVia(hasDS, dest, EdgeTaken, false)
			} else {
				linkVia(hasDS, g.Exit, EdgeExit, true)
			}
			fallDS := hasDS && !inst.AnnulBit()
			if dest := b.blockAt(fall); dest != nil {
				linkVia(fallDS, dest, EdgeFall, false)
			} else {
				linkVia(fallDS, g.Exit, EdgeExit, true)
			}
		case machine.CatJumpDirect:
			if dest, ok := takenDest(); ok {
				linkVia(hasDS, dest, EdgeTaken, false)
			} else {
				linkVia(hasDS, g.Exit, EdgeExit, true)
			}
		case machine.CatCallDirect, machine.CatCallIndirect:
			// The slot runs before the callee; both it and the
			// surrogate would need interprocedural editing, so they
			// are uneditable (paper §3.3).
			surr := g.NewBlock(KindCallSurrogate)
			surr.Uneditable = true
			if hasTarget {
				surr.CallTarget = target
			}
			from := blk
			if hasDS {
				ds := b.dsBlock(dsAddr, true)
				g.NewEdge(from, ds, EdgeCall, true)
				from = ds
			}
			g.NewEdge(from, surr, EdgeCall, true)
			if dest := b.blockAt(fall); dest != nil {
				g.NewEdge(surr, dest, EdgeReturn, false)
			} else {
				g.NewEdge(surr, g.Exit, EdgeExit, true)
			}
		case machine.CatReturn:
			linkVia(hasDS, g.Exit, EdgeReturn, true)
		case machine.CatJumpIndirect:
			ij := &IndirectJump{Block: blk, Addr: a}
			targets, resolved := b.opts.IndirectTargets[a]
			var slot *Block
			from := blk
			if hasDS {
				// All paths through an indirect jump execute the
				// slot once, so one slot block fans out to every
				// target; it stays uneditable only while the jump
				// is unresolved.
				slot = b.dsBlock(dsAddr, !resolved)
				g.NewEdge(from, slot, EdgeTaken, !resolved)
				from = slot
			}
			ij.Slot = slot
			if resolved {
				ij.Resolved = true
				ij.RuntimeOnly = b.opts.ForceTranslate
				if ti, ok := b.opts.Tables[a]; ok {
					ij.TableAddr = ti.Addr
					ij.TableLen = ti.Len
					ij.Literal = ti.Literal
					ij.LiteralTarget = ti.Target
				}
				seen := map[*Block]bool{}
				for _, t := range targets {
					if dest := b.blockAt(t); dest != nil && !seen[dest] {
						seen[dest] = true
						g.NewEdge(from, dest, EdgeTaken, ij.RuntimeOnly)
					}
				}
				if len(seen) == 0 {
					g.NewEdge(from, g.Exit, EdgeExit, true)
				}
			} else {
				g.NewEdge(from, g.Exit, EdgeExit, true)
				g.Complete = false
			}
			g.IndirectJumps = append(g.IndirectJumps, ij)
		}
	}
}

// findUnreachableTail locates the first instruction in the routine's
// extent that no path reaches: the paper's evidence of a hidden
// routine (§3.1 step 4).  The unreached region is not necessarily a
// suffix: when a later address inside the extent is itself an entry
// point (a hidden routine called directly, discovered by symbol
// refinement), a hidden routine between the reachable parts forms an
// unreached *hole*.  Splitting at the first unreached real
// instruction handles both shapes; ControlFlowGraph re-runs on the
// split-off part, peeling one hidden routine per pass.
func (b *builder) findUnreachableTail() {
	if len(b.g.Entries) == 0 {
		return // nothing was reached
	}
	for a := b.start; a < b.end; a += 4 {
		if b.is(a, reached) {
			continue
		}
		// The word a reached instruction never executes — the delay
		// slot of an annulled unconditional branch (ba,a), or the
		// successor an annulling non-transfer (bn,a) skips — is never
		// marked reached, but it is still part of this routine's
		// code, not a hidden routine.
		if a >= b.start+4 && b.is(a-4, reached) {
			if prev := b.instAt(a - 4); prev.Valid() && (prev.DelaySlots() == 1 && prev.IsAnnulledUncond() || annuls(prev)) {
				continue
			}
		}
		inst := b.instAt(a)
		// Skip padding: invalid words and the machine's nop (ABI.Nop).
		// Any other valid instruction — including a real sethi on
		// SPARC, whose nop is sethi 0, %g0 — marks hidden code.
		if inst.Valid() && (b.g.abi == nil || inst.Word() != b.g.abi.Nop) {
			b.g.UnreachableTail = a
			return
		}
	}
}
