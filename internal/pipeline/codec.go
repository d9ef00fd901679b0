package pipeline

import (
	"encoding/binary"
	"fmt"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
)

// This file is the bundle serialization layer behind the persistent
// analysis cache: encodeBundle flattens one routine's analysis —
// graph structure, indirect-jump resolutions, liveness, dominators,
// loops, and the bundle's external-read dependencies — into a
// compact, deterministic byte string, and decodeBundle rebuilds live
// objects from it against a concrete executable.  Instruction objects
// are not serialized at all: a decoded bundle re-reads each
// instruction's word from the image and decodes it through the
// executable's interning decoder, so a load costs a few table lookups
// per instruction instead of re-running CFG construction, slicing,
// and the dataflow fixpoints.
//
// The format carries codecVersion and analysisVersion up front;
// decodeBundle rejects both mismatches, so bumping either invalidates
// every persisted entry without touching the store.

// codecVersion guards the serialized layout itself (field order,
// varint framing); analysisVersion (cache.go) guards the meaning of
// the analyses.
const codecVersion = 2

// bundle flag bits.
const (
	flagLive = 1 << iota
	flagIdom
	flagLoops
	flagGraphComplete
	flagGraphHasData
)

// encLimit caps decoded element counts so a corrupt length prefix
// cannot allocate unbounded memory.
const encLimit = 1 << 22

type enc struct{ buf []byte }

func (e *enc) u(v uint64)   { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) u32(v uint32) { e.u(uint64(v)) }
func (e *enc) b(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

type dec struct {
	buf []byte
	err error
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("pipeline: truncated varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *dec) u32() uint32 {
	v := d.u()
	if v > 0xffffffff {
		d.err = fmt.Errorf("pipeline: u32 overflow")
	}
	return uint32(v)
}

func (d *dec) n() int {
	v := d.u()
	if v > encLimit {
		d.err = fmt.Errorf("pipeline: implausible count %d", v)
		return 0
	}
	return int(v)
}

func (d *dec) b() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) == 0 {
		d.err = fmt.Errorf("pipeline: truncated bool")
		return false
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v != 0
}

func (d *dec) str() string {
	n := d.n()
	if d.err != nil {
		return ""
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("pipeline: truncated string")
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// encodeBundle serializes b.  Every field round-trips except the
// instruction objects themselves, which decode re-derives from the
// image.
func encodeBundle(b *bundle) []byte {
	g := b.graph
	e := &enc{buf: make([]byte, 0, 256+32*len(g.Blocks))}
	e.u(codecVersion)
	e.u(analysisVersion)

	var flags uint64
	if b.live != nil {
		flags |= flagLive
	}
	if b.idom != nil {
		flags |= flagIdom
	}
	if b.loops != nil {
		flags |= flagLoops
	}
	if g.Complete {
		flags |= flagGraphComplete
	}
	if g.HasData {
		flags |= flagGraphHasData
	}
	e.u(flags)

	e.u32(b.tail)
	e.u(uint64(b.insts))
	e.u(uint64(b.blocks))
	e.u(uint64(b.edges))

	// External-read dependencies.
	e.u(uint64(len(b.reads)))
	for _, r := range b.reads {
		e.u32(r.addr)
		e.b(r.ok)
		e.u32(r.word)
	}

	// Graph shell.
	e.u32(g.Start)
	e.u32(g.End)
	e.u(uint64(len(g.Entries)))
	for _, a := range g.Entries {
		e.u32(a)
	}
	e.u32(g.UnreachableTail)
	e.u(uint64(len(g.Warnings)))
	for _, w := range g.Warnings {
		e.str(w)
	}

	// Blocks: kind, flags, call target, and instruction addresses
	// (delta-encoded from the block's first address).  Blocks and edges
	// are referred to by ID, which is their index in the graph.
	e.u(uint64(len(g.Blocks)))
	for _, blk := range g.Blocks {
		e.u(uint64(blk.Kind))
		e.b(blk.Uneditable)
		e.b(blk.HasData)
		e.u32(blk.CallTarget)
		e.u(uint64(len(blk.Insts)))
		prev := uint32(0)
		for i, in := range blk.Insts {
			if i == 0 {
				e.u32(in.Addr)
			} else {
				e.u32(in.Addr - prev)
			}
			prev = in.Addr
		}
	}
	entryID, exitID := 0, 0
	if g.Entry != nil {
		entryID = g.Entry.ID + 1
	}
	if g.Exit != nil {
		exitID = g.Exit.ID + 1
	}
	e.u(uint64(entryID)) // 0 = nil
	e.u(uint64(exitID))

	// Edges, in creation order (replaying them in order reproduces
	// each block's Succ/Pred ordering exactly).
	e.u(uint64(len(g.Edges)))
	for _, ed := range g.Edges {
		e.u(uint64(ed.From.ID))
		e.u(uint64(ed.To.ID))
		e.u(uint64(ed.Kind))
		e.b(ed.Uneditable)
	}

	// Indirect jumps.
	e.u(uint64(len(g.IndirectJumps)))
	for _, ij := range g.IndirectJumps {
		e.u(uint64(ij.Block.ID))
		e.u32(ij.Addr)
		slot := 0
		if ij.Slot != nil {
			slot = ij.Slot.ID + 1
		}
		e.u(uint64(slot))
		e.b(ij.Resolved)
		e.u32(ij.TableAddr)
		e.u(uint64(ij.TableLen))
		e.b(ij.Literal)
		e.u32(ij.LiteralTarget)
		e.b(ij.RuntimeOnly)
	}

	// Out-refs and external reads recorded on the graph.
	e.u(uint64(len(g.OutRefs)))
	for _, o := range g.OutRefs {
		e.u32(o.From)
		e.u32(o.Target)
		e.b(o.IsCall)
	}
	e.u(uint64(len(g.ExternalReads)))
	for _, a := range g.ExternalReads {
		e.u32(a)
	}

	// Liveness: per-block In/Out register sets, in block order.
	if b.live != nil {
		for _, blk := range g.Blocks {
			lo, hi := b.live.In[blk.ID].Words()
			e.u(lo)
			e.u(hi)
			lo, hi = b.live.Out[blk.ID].Words()
			e.u(lo)
			e.u(hi)
		}
	}

	// Dominators: the IDoms array, each entry +1 (0 = unreachable).
	if b.idom != nil {
		for _, d := range b.idom.IDoms() {
			e.u(uint64(d + 1))
		}
	}

	// Loops: head ID, the body's words (one per 64 blocks), and the
	// back edges' IDs.
	if b.loops != nil {
		e.u(uint64(len(b.loops)))
		for _, l := range b.loops {
			e.u(uint64(l.Head.ID))
			for _, w := range l.Body {
				e.u(w)
			}
			e.u(uint64(len(l.BackEdges)))
			for _, ed := range l.BackEdges {
				e.u(uint64(ed.ID))
			}
		}
	}
	return e.buf
}

// isDomTree reports whether idom, an IDoms array, is a tree rooted at
// entry: the entry names itself, and every other reachable block's
// chain of dominators reaches the entry, which in a tree of n blocks
// takes fewer than n steps.  A cycle would keep DomTree.Dominates
// walking forever.
func isDomTree(idom []int32, entry int32) bool {
	if idom[entry] != entry {
		return false
	}
	for _, d := range idom {
		if d < 0 {
			continue // unreachable
		}
		for steps := 0; d >= 0 && d != entry && steps < len(idom); steps++ {
			d = idom[d]
		}
		if d != entry {
			return false
		}
	}
	return true
}

// decodeBundle rebuilds a bundle from data against e's image and
// decoder.  Any structural implausibility (truncation, out-of-range
// index, unmapped instruction address) returns an error; callers
// treat that as a cache miss, never a failure.
func decodeBundle(e *core.Executable, data []byte) (*bundle, error) {
	d := &dec{buf: data}
	if v := d.u(); v != codecVersion {
		return nil, fmt.Errorf("pipeline: codec version %d (want %d)", v, codecVersion)
	}
	if v := d.u(); v != analysisVersion {
		return nil, fmt.Errorf("pipeline: analysis version %d (want %d)", v, analysisVersion)
	}
	flags := d.u()

	b := &bundle{}
	b.tail = d.u32()
	b.insts = int64(d.n())
	b.blocks = int64(d.n())
	b.edges = int64(d.n())

	nreads := d.n()
	for i := 0; i < nreads && d.err == nil; i++ {
		var r readDep
		r.addr = d.u32()
		r.ok = d.b()
		r.word = d.u32()
		b.reads = append(b.reads, r)
	}

	g := &cfg.Graph{
		Complete: flags&flagGraphComplete != 0,
		HasData:  flags&flagGraphHasData != 0,
	}
	g.SetDecoder(e.Dec)
	g.Start = d.u32()
	g.End = d.u32()
	nent := d.n()
	for i := 0; i < nent && d.err == nil; i++ {
		g.Entries = append(g.Entries, d.u32())
	}
	g.UnreachableTail = d.u32()
	nwarn := d.n()
	for i := 0; i < nwarn && d.err == nil; i++ {
		g.Warnings = append(g.Warnings, d.str())
	}

	nblocks := d.n()
	if d.err != nil {
		return nil, d.err
	}
	// Each block, edge and instruction takes at least a byte.
	if rest := int64(len(d.buf)); int64(nblocks) > rest || b.edges > rest || b.insts > rest {
		return nil, fmt.Errorf("pipeline: %d blocks, %d edges and %d instructions in %d bytes", nblocks, b.edges, b.insts, rest)
	}
	g.Reserve(nblocks, int(b.edges))
	g.ByAddr = make(map[uint32]*cfg.Block, nblocks)
	insts := make([]cfg.Inst, 0, b.insts) // backs every block's Insts
	for i := 0; i < nblocks; i++ {
		blk := g.NewBlock(cfg.BlockKind(d.u()))
		blk.Uneditable = d.b()
		blk.HasData = d.b()
		blk.CallTarget = d.u32()
		ninsts := d.n()
		addr := uint32(0)
		for j := 0; j < ninsts && d.err == nil; j++ {
			if j == 0 {
				addr = d.u32()
			} else {
				addr += d.u32()
			}
			mi, ok := e.InstAt(addr)
			if !ok || addr < g.Start || addr >= g.End {
				return nil, fmt.Errorf("pipeline: instruction address %#x outside the routine", addr)
			}
			insts = append(insts, cfg.Inst{Addr: addr, MI: mi})
		}
		if d.err != nil {
			return nil, d.err
		}
		if ninsts > 0 {
			blk.Insts = insts[len(insts)-ninsts : len(insts) : len(insts)]
		}
		if blk.Kind == cfg.KindNormal && len(blk.Insts) > 0 {
			g.ByAddr[blk.Insts[0].Addr] = blk
		}
	}

	blockAt := func(i int) (*cfg.Block, error) {
		if i < 0 || i >= len(g.Blocks) {
			return nil, fmt.Errorf("pipeline: block index %d out of range", i)
		}
		return g.Blocks[i], nil
	}
	if id := int(d.u()); id > 0 {
		blk, err := blockAt(id - 1)
		if err != nil {
			return nil, err
		}
		g.Entry = blk
	}
	if id := int(d.u()); id > 0 {
		blk, err := blockAt(id - 1)
		if err != nil {
			return nil, err
		}
		g.Exit = blk
	}

	nedges := d.n()
	if d.err != nil {
		return nil, d.err
	}
	for i := 0; i < nedges; i++ {
		from, errF := blockAt(int(d.u()))
		to, errT := blockAt(int(d.u()))
		kind := cfg.EdgeKind(d.u())
		uned := d.b()
		if d.err != nil {
			return nil, d.err
		}
		if errF != nil {
			return nil, errF
		}
		if errT != nil {
			return nil, errT
		}
		g.NewEdge(from, to, kind, uned)
	}
	g.Link()

	nij := d.n()
	for i := 0; i < nij && d.err == nil; i++ {
		ij := &cfg.IndirectJump{}
		blk, err := blockAt(int(d.u()))
		if err != nil {
			return nil, err
		}
		ij.Block = blk
		ij.Addr = d.u32()
		if slot := int(d.u()); slot > 0 {
			s, err := blockAt(slot - 1)
			if err != nil {
				return nil, err
			}
			ij.Slot = s
		}
		ij.Resolved = d.b()
		ij.TableAddr = d.u32()
		ij.TableLen = d.n()
		ij.Literal = d.b()
		ij.LiteralTarget = d.u32()
		ij.RuntimeOnly = d.b()
		g.IndirectJumps = append(g.IndirectJumps, ij)
	}

	nrefs := d.n()
	for i := 0; i < nrefs && d.err == nil; i++ {
		var o cfg.OutRef
		o.From = d.u32()
		o.Target = d.u32()
		o.IsCall = d.b()
		g.OutRefs = append(g.OutRefs, o)
	}
	next := d.n()
	for i := 0; i < next && d.err == nil; i++ {
		g.ExternalReads = append(g.ExternalReads, d.u32())
	}

	if flags&flagLive != 0 {
		n := len(g.Blocks)
		sets := make([]machine.RegSet, 2*n)
		for i := range n {
			sets[i] = machine.RegSetFromWords(d.u(), d.u())
			sets[n+i] = machine.RegSetFromWords(d.u(), d.u())
		}
		b.live = dataflow.RestoreLiveness(g, sets[:n:n], sets[n:])
	}

	if flags&flagIdom != 0 {
		idom := make([]int32, len(g.Blocks))
		for i := range idom {
			v := d.u()
			if v > uint64(len(idom)) {
				return nil, fmt.Errorf("pipeline: block index %d out of range", v-1)
			}
			idom[i] = int32(v) - 1
		}
		if g.Entry == nil || !isDomTree(idom, int32(g.Entry.ID)) {
			return nil, fmt.Errorf("pipeline: dominators are not a tree rooted at the entry")
		}
		b.idom = dataflow.RestoreDomTree(g, idom)
	}

	if flags&flagLoops != 0 {
		nloops := d.n()
		b.loops = make([]*dataflow.Loop, 0, min(nloops, len(d.buf)))
		nwords := (len(g.Blocks) + 63) / 64
		for i := 0; i < nloops && d.err == nil; i++ {
			head, err := blockAt(int(d.u()))
			if err != nil {
				return nil, err
			}
			l := &dataflow.Loop{Head: head, Body: make(dataflow.BlockSet, nwords)}
			for j := range l.Body {
				l.Body[j] = d.u()
			}
			// Bits past the last block must be clear.
			if n := len(g.Blocks); n%64 != 0 && l.Body[nwords-1]>>(n%64) != 0 {
				return nil, fmt.Errorf("pipeline: loop body beyond %d blocks", len(g.Blocks))
			}
			nback := d.n()
			for j := 0; j < nback && d.err == nil; j++ {
				ei := int(d.u())
				if ei < 0 || ei >= len(g.Edges) {
					return nil, fmt.Errorf("pipeline: edge index %d out of range", ei)
				}
				l.BackEdges = append(l.BackEdges, g.Edges[ei])
			}
			b.loops = append(b.loops, l)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	b.graph = g
	return b, nil
}
