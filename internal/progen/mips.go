package progen

// The MIPS personality.  Where the SPARC generator goes through the
// textual assembler, this one emits instruction words directly from
// internal/mips's canonical encoders — the second source of encoding
// truth the retargeting story requires (§4: the same tools run from a
// different spawn description).  The generated idioms are the MIPS
// counterparts of the SPARC ones: a forward-only call DAG (terminating
// by construction) linking through $ra spilled to data memory instead
// of register windows, counted loops and compares in branch delay
// slots, productive delay slots on returns, HI/LO traffic, partial-word
// memory ops, indirect calls through writable function-pointer slots,
// write(2) traps, and data tables embedded in the text segment.
//
// Register conventions: $16 is the global accumulator every routine
// mixes into, $17 is main's loop counter (no routine touches it),
// $8-$13 are per-idiom scratch, $1 forms data addresses, and $31 links
// calls.  Non-leaf routines spill $31 to a per-routine data slot;
// calls only go to strictly later routines, so no slot is ever live
// twice.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"

	"eel/internal/mips"
)

// Data-segment layout for the MIPS generator (all offsets from
// DataBase, reachable with one lui+imm16):
//
//	0x000-0x0ff  memOp scratch slots (8 bytes per routine mod 32)
//	0x800-0x8ff  $ra spill slots (4 bytes per routine, <= 64 routines)
//	0x980-0x9ff  function-pointer slots for indirect calls
//	0xa00        write(2) buffer
const (
	mipsDataHi = DataBase >> 16
	mipsRAOff  = 0x800
	mipsFPOff  = 0x980
	mipsBufOff = 0xa00
)

type mipsFix struct {
	idx   int    // word index to patch
	label string // target label
	kind  byte   // 'b' branch disp, 'j' jump target26, 'h' lui hi16, 'l' ori lo16
	name  string // instruction mnemonic to re-encode
	rs    uint32
	rt    uint32
}

type mipsGen struct {
	image
	cfg   Config
	rng   *rand.Rand
	words []uint32
	list  strings.Builder
	// labels maps each label to its address.
	labels map[string]uint32
	fix    []mipsFix
	// fpTarget, when nonzero, is the strictly later routine a routine
	// calls indirectly through its function-pointer slot.
	fpTarget []int
}

func generateMIPS(cfg Config) (*Program, error) {
	if cfg.Routines > 64 {
		return nil, fmt.Errorf("progen: mips personality supports at most 64 routines (got %d)", cfg.Routines)
	}
	g := &mipsGen{
		image:    image{Routines: make([]Routine, cfg.Routines), prefix: ".X"},
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		labels:   map[string]uint32{},
		fpTarget: make([]int, cfg.Routines),
	}
	for i := range g.Routines {
		r := &g.Routines[i]
		r.MayCall = i+1 < cfg.Routines && g.rng.Float64() < 0.5
		if cfg.CallHeavy && i+1 < cfg.Routines {
			r.MayCall = true
		}
		// Indirect calls ride on the call-saving prologue.
		if r.MayCall && g.rng.Float64() < 0.3 {
			g.fpTarget[i] = i + 1 + g.rng.Intn(cfg.Routines-i-1)
			g.switches++ // counted as the indirect-transfer feature
		}
		r.Hidden = g.rng.Float64() < cfg.HiddenFrac
	}
	g.emitMain()
	for i := 0; i < cfg.Routines; i++ {
		g.emitRoutine(i)
		if cfg.DataTables && g.rng.Float64() < 0.2 {
			g.emitDataBlob()
		}
	}
	if err := g.resolve(); err != nil {
		return nil, err
	}
	text := make([]byte, len(g.words)*4)
	for i, w := range g.words {
		binary.BigEndian.PutUint32(text[i*4:], w)
	}
	return g.build(g.list.String(), cfg.Base, text, g.labels, cfg.Strip), nil
}

// pc returns the address of the next word to be emitted.
func (g *mipsGen) pc() uint32 { return g.cfg.Base + uint32(len(g.words))*4 }

// w appends one instruction word, returning the listing writer so
// call sites read g.w(encode(...))("mnemonic ...").
func (g *mipsGen) w(word uint32, err error) func(format string, args ...any) {
	if err != nil {
		panic(fmt.Sprintf("progen: mips encode at %#x: %v", g.pc(), err))
	}
	g.words = append(g.words, word)
	return func(format string, args ...any) {
		g.list.WriteByte('\t')
		fmt.Fprintf(&g.list, format, args...)
		g.list.WriteByte('\n')
	}
}

func (g *mipsGen) at(name string) {
	g.labels[name] = g.pc()
	fmt.Fprintf(&g.list, "%s:\n", name)
}

// branch emits a placeholder branch to label, retargeted in resolve;
// rt is dropped for the forms that compare rs with zero.
func (g *mipsGen) branch(name string, rs, rt uint32, label string) {
	w, err := mips.EncodeBranchZ(name, rs, 0)
	if def, _ := mips.Desc().Lookup(name); def.Reads("rt") {
		w, err = mips.EncodeBranch(name, rs, rt, 0)
	}
	g.fix = append(g.fix, mipsFix{idx: len(g.words), label: label, kind: 'b'})
	g.w(w, err)("%s $%d, $%d, %s", name, rs, rt, label)
}

// jump emits a placeholder j/jal to label, patched in resolve.
func (g *mipsGen) jump(name, label string) {
	w, err := mips.EncodeJ(name, 0)
	g.fix = append(g.fix, mipsFix{idx: len(g.words), label: label, kind: 'j', name: name})
	g.w(w, err)("%s %s", name, label)
}

// la materializes label's absolute address in reg (lui+ori, both
// patched in resolve).
func (g *mipsGen) la(reg uint32, label string) {
	w, err := mips.EncodeIU("lui", reg, 0, 0)
	g.fix = append(g.fix, mipsFix{idx: len(g.words), label: label, kind: 'h', rt: reg})
	g.w(w, err)("lui $%d, %%hi(%s)", reg, label)
	w, err = mips.EncodeIU("ori", reg, reg, 0)
	g.fix = append(g.fix, mipsFix{idx: len(g.words), label: label, kind: 'l', rs: reg, rt: reg})
	g.w(w, err)("ori $%d, $%d, %%lo(%s)", reg, reg, label)
}

func (g *mipsGen) resolve() error {
	for _, f := range g.fix {
		target, ok := g.labels[f.label]
		if !ok {
			return fmt.Errorf("progen: mips label %s undefined", f.label)
		}
		pc := g.cfg.Base + uint32(f.idx)*4
		var w uint32
		var err error
		switch f.kind {
		case 'b':
			w, err = mips.Desc().Retarget(g.words[f.idx], pc, target)
		case 'j':
			var tw uint32
			tw, err = mips.JTargetFor(pc, target)
			if err == nil {
				w, err = mips.EncodeJ(f.name, tw)
			}
		case 'h':
			w, err = mips.EncodeIU("lui", f.rt, 0, target>>16)
		case 'l':
			w, err = mips.EncodeIU("ori", f.rt, f.rs, target&0xffff)
		}
		if err != nil {
			return fmt.Errorf("progen: mips fixup %s -> %s: %w", f.name, f.label, err)
		}
		g.words[f.idx] = w
	}
	return nil
}

// slot fills a delay slot, occasionally with productive work on the
// accumulator (never touching branch/loop state).
func (g *mipsGen) slot() {
	if g.rng.Intn(3) == 0 {
		n := int32(1 + g.rng.Intn(15))
		g.w(mips.EncodeI("addiu", 16, 16, n))("addiu $16, $16, %d", n)
		return
	}
	g.w(mips.Nop(), nil)("nop")
}

func (g *mipsGen) emitMain() {
	g.at("main")
	g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
	// Function-pointer slots for indirect-calling routines.
	for i, tgt := range g.fpTarget {
		if tgt == 0 {
			continue
		}
		g.la(8, fmt.Sprintf("r%d", tgt))
		g.w(mips.EncodeI("sw", 8, 1, int32(mipsFPOff+4*i)))("sw $8, %#x($1)", mipsFPOff+4*i)
	}
	g.w(mips.EncodeI("addiu", 16, 0, int32(1+g.rng.Intn(64))))("addiu $16, $0, init")
	roots := 1 + g.rng.Intn(min(4, g.cfg.Routines))
	for rep := 0; rep < 6; rep++ {
		for i := 0; i < roots; i++ {
			g.callRoutine(i * (g.cfg.Routines / roots))
		}
		g.w(mips.EncodeIU("xori", 16, 16, uint32(rep+1)))("xori $16, $16, %d", rep+1)
	}
	if g.cfg.HotLoop > 0 {
		top := g.Fresh("hot")
		g.w(mips.EncodeI("addiu", 17, 0, int32(g.cfg.HotLoop)))("addiu $17, $0, %d", g.cfg.HotLoop)
		g.at(top)
		for i := 0; i < roots; i++ {
			g.callRoutine(i * (g.cfg.Routines / roots))
		}
		g.w(mips.EncodeI("addiu", 17, 17, -1))("addiu $17, $17, -1")
		g.branch("bne", 17, 0, top)
		g.w(mips.Nop(), nil)("nop")
	}
	g.w(mips.EncodeIU("andi", 4, 16, 0xff))("andi $4, $16, 0xff")
	g.w(mips.EncodeI("addiu", 2, 0, 1))("addiu $2, $0, 1")
	g.w(mips.EncodeSyscall())("syscall")
}

func (g *mipsGen) callRoutine(idx int) {
	if idx >= g.cfg.Routines {
		return
	}
	g.jump("jal", fmt.Sprintf("r%d", idx))
	g.slot()
}

func (g *mipsGen) emitRoutine(idx int) {
	g.at(fmt.Sprintf("r%d", idx))
	saves := g.Routines[idx].MayCall
	if saves {
		g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
		g.w(mips.EncodeI("sw", 31, 1, int32(mipsRAOff+4*idx)))("sw $31, %#x($1)", mipsRAOff+4*idx)
	}
	ops := g.cfg.BodyOps/2 + g.rng.Intn(g.cfg.BodyOps)
	didIndirect := false
	for i := 0; i < ops; i++ {
		kind := g.rng.Intn(9)
		if g.cfg.CallHeavy && (kind == 0 || kind == 5) {
			kind = 7
		}
		switch kind {
		case 0, 1, 2:
			g.arith()
		case 3:
			g.loop()
		case 4:
			g.ifThen()
		case 5:
			g.memOp(idx)
		case 6:
			g.mulOp()
		case 7:
			lo := idx + 1
			if lo < g.cfg.Routines && g.Routines[idx].MayCall {
				g.callRoutine(lo + g.rng.Intn(g.cfg.Routines-lo))
			} else {
				g.arith()
			}
		case 8:
			if g.fpTarget[idx] != 0 && !didIndirect {
				didIndirect = true
				g.indirectCall(idx)
			} else {
				g.writeTrap()
			}
		}
		if g.cfg.MemHeavy && g.rng.Intn(2) == 0 {
			g.memOp(idx)
		}
	}
	if g.fpTarget[idx] != 0 && !didIndirect {
		g.indirectCall(idx)
	}
	// Epilogue: reload the spilled $ra if the routine called out, then
	// a jr with (sometimes) productive work in the delay slot.
	if saves {
		g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
		g.w(mips.EncodeI("lw", 31, 1, int32(mipsRAOff+4*idx)))("lw $31, %#x($1)", mipsRAOff+4*idx)
	}
	g.w(mips.EncodeR("jr", 0, 31, 0))("jr $31")
	g.slot()
}

func (g *mipsGen) arith() {
	dst := []uint32{16, 8, 9, 16}[g.rng.Intn(4)]
	src := []uint32{16, 8, 9}[g.rng.Intn(3)]
	switch g.rng.Intn(4) {
	case 0:
		op := []string{"addu", "subu", "xor", "and", "or", "nor", "slt", "sltu"}[g.rng.Intn(8)]
		g.w(mips.EncodeR(op, dst, src, 16))("%s $%d, $%d, $16", op, dst, src)
	case 1:
		op := []string{"addiu", "slti"}[g.rng.Intn(2)]
		n := int32(g.rng.Intn(64)) - 16
		g.w(mips.EncodeI(op, dst, src, n))("%s $%d, $%d, %d", op, dst, src, n)
	case 2:
		op := []string{"andi", "ori", "xori"}[g.rng.Intn(3)]
		n := uint32(g.rng.Intn(1 << 12))
		g.w(mips.EncodeIU(op, dst, src, n))("%s $%d, $%d, %#x", op, dst, src, n)
	default:
		op := []string{"sll", "srl", "sra"}[g.rng.Intn(3)]
		n := uint32(1 + g.rng.Intn(5))
		g.w(mips.EncodeShift(op, dst, src, n))("%s $%d, $%d, %d", op, dst, src, n)
	}
}

// loop is a counted countdown with the backward branch's delay slot
// sometimes doing accumulator work.  $11 is the loop counter; the body
// must not touch it.
func (g *mipsGen) loop() {
	top := g.Fresh("loop")
	n := int32(2 + g.rng.Intn(6))
	g.w(mips.EncodeI("addiu", 11, 0, n))("addiu $11, $0, %d", n)
	g.at(top)
	g.arith()
	g.w(mips.EncodeI("addiu", 11, 11, -1))("addiu $11, $11, -1")
	g.branch("bne", 11, 0, top)
	g.slot()
}

// ifThen emits a forward conditional skip using the full branch menu:
// the two-register forms and the single-register sign tests.
func (g *mipsGen) ifThen() {
	skip := g.Fresh("skip")
	switch g.rng.Intn(4) {
	case 0:
		g.w(mips.EncodeI("slti", 9, 16, int32(g.rng.Intn(64))))("slti $9, $16, k")
		g.branch([]string{"beq", "bne"}[g.rng.Intn(2)], 9, 0, skip)
	case 1:
		g.w(mips.EncodeR("subu", 9, 16, 8))("subu $9, $16, $8")
		g.branch([]string{"beq", "bne"}[g.rng.Intn(2)], 9, 8, skip)
	case 2:
		g.branch([]string{"blez", "bgtz"}[g.rng.Intn(2)], 16, 0, skip)
	default:
		g.branch([]string{"bltz", "bgez"}[g.rng.Intn(2)], 16, 0, skip)
	}
	g.slot()
	g.arith()
	g.at(skip)
}

// memOp round-trips the accumulator through the routine's data slot,
// mixing in partial-word accesses.
func (g *mipsGen) memOp(idx int) {
	off := int32((idx % 32) * 8)
	g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
	g.w(mips.EncodeI("sw", 16, 1, off))("sw $16, %d($1)", off)
	load := []string{"lw", "lb", "lbu", "lh", "lhu"}[g.rng.Intn(5)]
	ld := off
	switch load {
	case "lb", "lbu":
		ld += int32(g.rng.Intn(4))
	case "lh", "lhu":
		ld += int32(g.rng.Intn(2)) * 2
	}
	g.w(mips.EncodeI(load, 9, 1, ld))("%s $9, %d($1)", load, ld)
	if g.rng.Intn(2) == 0 {
		g.w(mips.EncodeI("sb", 9, 1, off+4))("sb $9, %d($1)", off+4)
		g.w(mips.EncodeI("sh", 16, 1, off+6))("sh $16, %d($1)", off+6)
	}
	g.w(mips.EncodeR("addu", 16, 16, 9))("addu $16, $16, $9")
	g.w(mips.EncodeShift("srl", 16, 16, 1))("srl $16, $16, 1")
}

// mulOp drives HI/LO: multiply the accumulator by a small constant and
// fold both halves back in.
func (g *mipsGen) mulOp() {
	k := int32(3 + g.rng.Intn(95))
	g.w(mips.EncodeI("addiu", 9, 0, k))("addiu $9, $0, %d", k)
	op := []string{"mult", "multu"}[g.rng.Intn(2)]
	g.w(mips.EncodeR(op, 0, 16, 9))("%s $16, $9", op)
	g.w(mips.EncodeR("mflo", 12, 0, 0))("mflo $12")
	g.w(mips.EncodeR("mfhi", 13, 0, 0))("mfhi $13")
	g.w(mips.EncodeR("xor", 16, 12, 13))("xor $16, $12, $13")
}

// indirectCall loads the routine's function-pointer slot (written by
// main, targeting a strictly later routine) and calls through it.
func (g *mipsGen) indirectCall(idx int) {
	g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
	g.w(mips.EncodeI("lw", 12, 1, int32(mipsFPOff+4*idx)))("lw $12, %#x($1)", mipsFPOff+4*idx)
	g.w(mips.EncodeR("jalr", 31, 12, 0))("jalr $12")
	g.slot()
}

// writeTrap stores the accumulator and write(2)s it, so the oracles
// compare output bytes, not just final state.
func (g *mipsGen) writeTrap() {
	g.w(mips.EncodeIU("lui", 1, 0, mipsDataHi))("lui $1, %#x", mipsDataHi)
	g.w(mips.EncodeI("sw", 16, 1, mipsBufOff))("sw $16, %#x($1)", mipsBufOff)
	g.w(mips.EncodeI("addiu", 2, 0, 4))("addiu $2, $0, 4")
	g.w(mips.EncodeI("addiu", 4, 0, 1))("addiu $4, $0, 1")
	g.w(mips.EncodeIU("lui", 5, 0, mipsDataHi))("lui $5, %#x", mipsDataHi)
	g.w(mips.EncodeI("addiu", 5, 5, mipsBufOff))("addiu $5, $5, %#x", mipsBufOff)
	g.w(mips.EncodeI("addiu", 6, 0, 4))("addiu $6, $0, 4")
	g.w(mips.EncodeSyscall())("syscall")
}

func (g *mipsGen) emitDataBlob() {
	n := 2 + g.rng.Intn(6)
	g.at(g.blob(n))
	for i := 0; i < n; i++ {
		v := g.rng.Uint32()
		g.w(v, nil)(".word %#x", v)
	}
}
