// Package asm is a two-pass SPARC V8 assembler for the subset of
// syntax this repository's tests, examples, snippets, and program
// generator need: labels, data directives (.word/.half/.byte/.ascii/
// .asciz/.align/.skip), the instruction set of the spawn description,
// memory operands, %hi()/%lo() relocation operators, and the common
// pseudo-instructions (set, mov, cmp, jmp, ret, retl, nop, clr, b).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"eel/internal/machine"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Program is an assembled byte image with its label table.
type Program struct {
	Base   uint32
	Bytes  []byte
	Labels map[string]uint32
}

// Words returns the image as big-endian words (the image length must
// be word-aligned).
func (p *Program) Words() []uint32 {
	out := make([]uint32, len(p.Bytes)/4)
	for i := range out {
		out[i] = be32(p.Bytes[i*4:])
	}
	return out
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Error reports an assembly failure with line context.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type stmt struct {
	line   int
	label  string
	op     string
	args   string
	addr   uint32
	length uint32
}

// Assemble assembles src at the given base address.
func Assemble(src string, base uint32) (*Program, error) {
	stmts, err := scan(src)
	if err != nil {
		return nil, err
	}
	p := &Program{Base: base, Labels: map[string]uint32{}}
	// Pass 1: lay out addresses.
	addr := base
	for i := range stmts {
		s := &stmts[i]
		if s.op == ".align" {
			n, err := parseNum(strings.TrimSpace(s.args))
			if err != nil || n == 0 {
				return nil, &Error{s.line, "bad .align"}
			}
			for addr%uint32(n) != 0 {
				addr++
			}
		}
		s.addr = addr
		if s.label != "" {
			if _, dup := p.Labels[s.label]; dup {
				return nil, &Error{s.line, "duplicate label " + s.label}
			}
			p.Labels[s.label] = addr
		}
		n, err := sizeOf(s)
		if err != nil {
			return nil, err
		}
		s.length = n
		addr += n
	}
	// Pass 2: encode.
	a := &assembler{prog: p}
	for i := range stmts {
		if err := a.emit(&stmts[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MustAssemble is Assemble for known-good test inputs.
func MustAssemble(src string, base uint32) *Program {
	p, err := Assemble(src, base)
	if err != nil {
		panic(err)
	}
	return p
}

// scan splits source into labelled statements.
func scan(src string) ([]stmt, error) {
	var stmts []stmt
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		for _, c := range []string{"!", ";", "//"} {
			if idx := strings.Index(line, c); idx >= 0 {
				line = line[:idx]
			}
		}
		line = strings.TrimSpace(line)
		for line != "" {
			var s stmt
			s.line = i + 1
			if idx := strings.Index(line, ":"); idx >= 0 && isLabel(line[:idx]) {
				s.label = line[:idx]
				line = strings.TrimSpace(line[idx+1:])
				// Several labels may share one address ("a: b: nop"):
				// emit a label-only statement and keep scanning.
				if idx2 := strings.Index(line, ":"); idx2 >= 0 && isLabel(line[:idx2]) {
					stmts = append(stmts, s)
					continue
				}
			}
			fields := strings.SplitN(line, " ", 2)
			s.op = strings.TrimSpace(fields[0])
			if len(fields) > 1 {
				s.args = strings.TrimSpace(fields[1])
			}
			line = ""
			stmts = append(stmts, s)
		}
	}
	return stmts, nil
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '_' || r == '.' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9') {
			continue
		}
		return false
	}
	return true
}

// sizeOf returns a statement's byte length.
func sizeOf(s *stmt) (uint32, error) {
	switch s.op {
	case "", ".align", ".global":
		return 0, nil
	case ".word":
		return uint32(4 * len(splitArgs(s.args))), nil
	case ".half":
		return uint32(2 * len(splitArgs(s.args))), nil
	case ".byte":
		return uint32(len(splitArgs(s.args))), nil
	case ".skip":
		n, err := parseNum(strings.TrimSpace(s.args))
		if err != nil {
			return 0, &Error{s.line, "bad .skip"}
		}
		return uint32(n), nil
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(strings.TrimSpace(s.args))
		if err != nil {
			return 0, &Error{s.line, "bad string literal"}
		}
		n := uint32(len(str))
		if s.op == ".asciz" {
			n++
		}
		return n, nil
	case "set":
		return 8, nil // sethi + or
	default:
		return 4, nil
	}
}

type assembler struct {
	prog *Program
}

func (a *assembler) emit(s *stmt) error {
	switch s.op {
	case "", ".align", ".global":
		// .align pads with zeros up to s.addr.
		for uint32(len(a.prog.Bytes))+a.prog.Base < s.addr {
			a.prog.Bytes = append(a.prog.Bytes, 0)
		}
		return nil
	case ".word", ".half", ".byte":
		width := map[string]int{".word": 4, ".half": 2, ".byte": 1}[s.op]
		for _, arg := range splitArgs(s.args) {
			v, err := a.value(arg, s)
			if err != nil {
				return err
			}
			for i := width - 1; i >= 0; i-- {
				a.prog.Bytes = append(a.prog.Bytes, byte(v>>(8*i)))
			}
		}
		return nil
	case ".skip":
		for i := uint32(0); i < s.length; i++ {
			a.prog.Bytes = append(a.prog.Bytes, 0)
		}
		return nil
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(strings.TrimSpace(s.args))
		if err != nil {
			return &Error{s.line, "bad string literal"}
		}
		a.prog.Bytes = append(a.prog.Bytes, str...)
		if s.op == ".asciz" {
			a.prog.Bytes = append(a.prog.Bytes, 0)
		}
		return nil
	}
	words, err := a.inst(s)
	if err != nil {
		return err
	}
	for _, w := range words {
		a.prog.Bytes = append(a.prog.Bytes, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return nil
}

// value resolves a numeric or label operand, with %hi()/%lo().
func (a *assembler) value(arg string, s *stmt) (int64, error) {
	arg = strings.TrimSpace(arg)
	if strings.HasPrefix(arg, "%hi(") && strings.HasSuffix(arg, ")") {
		v, err := a.value(arg[4:len(arg)-1], s)
		if err != nil {
			return 0, err
		}
		return int64(sparc.Hi(uint32(v))), nil
	}
	if strings.HasPrefix(arg, "%lo(") && strings.HasSuffix(arg, ")") {
		v, err := a.value(arg[4:len(arg)-1], s)
		if err != nil {
			return 0, err
		}
		return int64(sparc.Lo(uint32(v))), nil
	}
	// label+offset / label-offset
	for _, sep := range []string{"+", "-"} {
		if idx := strings.LastIndex(arg, sep); idx > 0 && isLabel(arg[:idx]) {
			base, ok := a.prog.Labels[arg[:idx]]
			if !ok {
				break
			}
			off, err := parseNum(arg[idx+1:])
			if err != nil {
				return 0, &Error{s.line, "bad offset in " + arg}
			}
			if sep == "-" {
				off = -off
			}
			return int64(base) + off, nil
		}
	}
	if v, ok := a.prog.Labels[arg]; ok {
		return int64(v), nil
	}
	v, err := parseNum(arg)
	if err != nil {
		return 0, &Error{s.line, fmt.Sprintf("cannot resolve operand %q", arg)}
	}
	return v, nil
}

func parseNum(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "0b"):
		v, err = strconv.ParseUint(s[2:], 2, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// splitArgs splits on commas outside brackets and parens.
func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if rest := strings.TrimSpace(s[start:]); rest != "" {
		out = append(out, rest)
	}
	return out
}

// inst assembles one instruction (possibly a pseudo expanding to two
// words).
func (a *assembler) inst(s *stmt) ([]uint32, error) {
	op := s.op
	annul := false
	if strings.HasSuffix(op, ",a") {
		op = strings.TrimSuffix(op, ",a")
		annul = true
	}
	args := splitArgs(s.args)
	fail := func(format string, v ...any) ([]uint32, error) {
		return nil, &Error{s.line, fmt.Sprintf(format, v...)}
	}
	one := func(w uint32, err error) ([]uint32, error) {
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		return []uint32{w}, nil
	}

	// Pseudo-instructions that name another instruction's operands.
	switch n := len(args); {
	case op == "b":
		op = "ba"
	case op == "rd" && n == 2 && args[0] == "%y":
		op, args = "rdy", args[1:]
	case op == "wr" && n == 2 && args[1] == "%y":
		op, args = "wry", []string{args[0], "%g0"}
	case op == "mov" && n == 2:
		op, args = "or", []string{"%g0", args[0], args[1]}
	case op == "clr" && n == 1:
		op, args = "or", []string{"%g0", "%g0", args[0]}
	case op == "cmp" && n == 2:
		op, args = "subcc", []string{args[0], args[1], "%g0"}
	case op == "tst" && n == 1:
		op, args = "orcc", []string{args[0], "%g0", "%g0"}
	case op == "restore" && n == 0:
		args = []string{"%g0", "%g0", "%g0"}
	}
	// Mnemonics are classified from the description: branches read
	// the annul bit, loads and stores by category.
	def, ok := sparc.Desc().Lookup(op)
	if !ok {
		def = &spawn.InstDef{}
	}

	switch cat := def.Info.Cat; {
	case op == "nop":
		return []uint32{sparc.Nop()}, nil
	case def.Reads("aflag"):
		if len(args) != 1 {
			return fail("%s wants one target", op)
		}
		tgt, err := a.value(args[0], s)
		if err != nil {
			return nil, err
		}
		disp := (int32(tgt) - int32(s.addr)) / 4
		return one(sparc.EncodeBranch(op, annul, disp))
	case op == "call":
		if len(args) != 1 {
			return fail("call wants one target")
		}
		if strings.HasPrefix(args[0], "%") {
			// call through a register: jmpl reg, %o7
			return a.memInst("jmpl", sparc.RegO7, "["+args[0]+"]", s)
		}
		tgt, err := a.value(args[0], s)
		if err != nil {
			return nil, err
		}
		return one(sparc.EncodeCall((int32(tgt) - int32(s.addr)) / 4))
	case op == "jmp":
		if len(args) != 1 {
			return fail("jmp wants one target")
		}
		return a.memInst("jmpl", sparc.RegG0, "["+strings.Trim(args[0], "[]")+"]", s)
	case op == "jmpl":
		if len(args) != 2 {
			return fail("jmpl wants address, rd")
		}
		rd, err := sparc.ParseReg(args[1])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		return a.memInst("jmpl", rd, "["+strings.Trim(args[0], "[]")+"]", s)
	case op == "ret":
		return one(sparc.EncodeOp3Imm("jmpl", sparc.RegG0, sparc.RegI7, 8))
	case op == "retl":
		return one(sparc.EncodeOp3Imm("jmpl", sparc.RegG0, sparc.RegO7, 8))
	case op == "ta":
		if len(args) != 1 {
			return fail("ta wants a trap number")
		}
		n, err := a.value(args[0], s)
		if err != nil {
			return nil, err
		}
		return one(sparc.EncodeTa(int32(n)))
	case op == "sethi":
		if len(args) != 2 {
			return fail("sethi wants value, rd")
		}
		rd, err := sparc.ParseReg(args[1])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		v, err := a.value(args[0], s)
		if err != nil {
			return nil, err
		}
		// The operand of sethi is the 22-bit field: %hi(x) evaluates
		// to x's upper bits, a bare value is taken as the field.
		return one(sparc.EncodeSethi(rd, uint32(v)<<10))
	case op == "set":
		if len(args) != 2 {
			return fail("set wants value, rd")
		}
		rd, err := sparc.ParseReg(args[1])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		v, err := a.value(args[0], s)
		if err != nil {
			return nil, err
		}
		hi, err1 := sparc.EncodeSethi(rd, uint32(v))
		lo, err2 := sparc.EncodeOp3Imm("or", rd, rd, int32(sparc.Lo(uint32(v))))
		if err1 != nil || err2 != nil {
			return fail("set: %v %v", err1, err2)
		}
		return []uint32{hi, lo}, nil
	case cat == machine.CatLoad || cat == machine.CatLoadStore:
		if len(args) != 2 {
			return fail("%s wants [address], rd", op)
		}
		rd, err := sparc.ParseReg(args[1])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		return a.memInst(op, rd, args[0], s)
	case cat == machine.CatStore:
		if len(args) != 2 {
			return fail("%s wants rd, [address]", op)
		}
		rd, err := sparc.ParseReg(args[0])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		return a.memInst(op, rd, args[1], s)
	}
	return a.operate(def, op, args, s)
}

// operate assembles an instruction from the register and immediate
// operands its definition reads, in assembly order: rs1, then rs2 or
// an immediate, then rd ("add %g1, 5, %g3", "fmovs %f1, %f2",
// "fcmps %f0, %f1").
func (a *assembler) operate(def *spawn.InstDef, op string, args []string, s *stmt) ([]uint32, error) {
	var fieldBuf [3]string
	var opBuf [4]spawn.Arg
	fields, ops := fieldBuf[:0], opBuf[:0]
	for _, f := range [...]string{"rs1", "rs2", "rd"} {
		if def.Reads(f) {
			fields = append(fields, f)
		}
	}
	switch {
	case def.Name == "":
		return nil, &Error{s.line, fmt.Sprintf("unknown instruction %q, or bad operands", s.op)}
	case len(args) != len(fields):
		return nil, &Error{s.line, fmt.Sprintf("%s wants operands %s", s.op, strings.Join(fields, ", "))}
	}
	for i, f := range fields {
		if f == "rs2" && (!strings.HasPrefix(args[i], "%") || strings.HasPrefix(args[i], "%lo(")) {
			v, err := a.value(args[i], s)
			if err != nil {
				return nil, err
			}
			ops = append(ops, spawn.Set("iflag", 1), spawn.Set("simm13", int32(v)))
			continue
		}
		r, err := sparc.ParseReg(args[i])
		if err != nil {
			return nil, &Error{s.line, err.Error()}
		}
		ops = append(ops, spawn.Set(f, r))
	}
	w, err := sparc.Desc().Encode(op, ops...)
	if err != nil {
		return nil, &Error{s.line, err.Error()}
	}
	return []uint32{w}, nil
}

// memInst assembles a load/store with a bracketed address operand.
func (a *assembler) memInst(op string, rd machine.Reg, addr string, s *stmt) ([]uint32, error) {
	addr = strings.TrimSpace(addr)
	if !strings.HasPrefix(addr, "[") || !strings.HasSuffix(addr, "]") {
		return nil, &Error{s.line, "memory operand must be bracketed"}
	}
	r, off, ri, useRI, err := a.memOperand(addr[1:len(addr)-1], s)
	if err != nil {
		return nil, err
	}
	var w uint32
	if useRI {
		w, err = sparc.EncodeOp3(op, rd, r, ri)
	} else {
		w, err = sparc.EncodeOp3Imm(op, rd, r, off)
	}
	if err != nil {
		return nil, &Error{s.line, err.Error()}
	}
	return []uint32{w}, nil
}

// memOperand parses "reg", "reg+imm", "reg-imm", "reg+reg", or a bare
// value (encoded as %g0+imm).
func (a *assembler) memOperand(text string, s *stmt) (base machine.Reg, off int32, ri machine.Reg, useRI bool, err error) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "%") {
		v, verr := a.value(text, s)
		if verr != nil {
			return 0, 0, 0, false, verr
		}
		return sparc.RegG0, int32(v), 0, false, nil
	}
	plus := strings.IndexAny(text[1:], "+-")
	if plus < 0 {
		r, rerr := sparc.ParseReg(text)
		if rerr != nil {
			return 0, 0, 0, false, &Error{s.line, rerr.Error()}
		}
		return r, 0, 0, false, nil
	}
	plus++ // index into text
	r, rerr := sparc.ParseReg(strings.TrimSpace(text[:plus]))
	if rerr != nil {
		return 0, 0, 0, false, &Error{s.line, rerr.Error()}
	}
	rest := strings.TrimSpace(text[plus+1:])
	neg := text[plus] == '-'
	if strings.HasPrefix(rest, "%") && !strings.HasPrefix(rest, "%lo(") {
		if neg {
			return 0, 0, 0, false, &Error{s.line, "cannot subtract a register"}
		}
		r2, rerr := sparc.ParseReg(rest)
		if rerr != nil {
			return 0, 0, 0, false, &Error{s.line, rerr.Error()}
		}
		return r, 0, r2, true, nil
	}
	v, verr := a.value(rest, s)
	if verr != nil {
		return 0, 0, 0, false, verr
	}
	if neg {
		v = -v
	}
	return r, int32(v), 0, false, nil
}
