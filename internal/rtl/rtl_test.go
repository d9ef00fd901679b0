package rtl

import (
	"strings"
	"testing"
	"testing/quick"
)

func parse(t *testing.T, src string) Node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

func TestParseNumber(t *testing.T) {
	cases := map[string]int64{
		"42":     42,
		"0x2a":   42,
		"0b1010": 10,
		"0":      0,
	}
	for src, want := range cases {
		n := parse(t, src)
		num, ok := n.(Num)
		if !ok || num.Val != want {
			t.Errorf("Parse(%q) = %v, want %d", src, n, want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// a + b * c parses as a + (b*c)
	n := parse(t, "a + b * c")
	add, ok := n.(Bin)
	if !ok || add.Op != "+" {
		t.Fatalf("top = %v", n)
	}
	mul, ok := add.R.(Bin)
	if !ok || mul.Op != "*" {
		t.Fatalf("rhs = %v", add.R)
	}
	// shifts bind tighter than comparison
	n2 := parse(t, "a << 2 == b")
	cmp, ok := n2.(Bin)
	if !ok || cmp.Op != "==" {
		t.Fatalf("top = %v", n2)
	}
	// single '=' means equality
	n3 := parse(t, "iflag = 1")
	eq, ok := n3.(Bin)
	if !ok || eq.Op != "==" {
		t.Fatalf("'=' did not normalize: %v", n3)
	}
}

func TestParseAssignAndGuard(t *testing.T) {
	n := parse(t, "R[rd] := R[rs1] + 1")
	asg, ok := n.(Assign)
	if !ok {
		t.Fatalf("not an assign: %v", n)
	}
	if _, ok := asg.LHS.(Index); !ok {
		t.Errorf("lhs = %v", asg.LHS)
	}
	g := parse(t, "x = 1 ? a := 2 : b := 3")
	cond, ok := g.(Cond)
	if !ok {
		t.Fatalf("not a guard: %v", g)
	}
	if _, ok := cond.T.(Assign); !ok {
		t.Errorf("then arm = %v", cond.T)
	}
	if _, ok := cond.F.(Assign); !ok {
		t.Errorf("else arm = %v", cond.F)
	}
}

func TestParseGuardChain(t *testing.T) {
	// The paper's branch semantics: guard with a guard in the else arm.
	n := parse(t, "(t r) ? pc := tgt : (aflag = 1 ? annul)")
	outer, ok := n.(Cond)
	if !ok {
		t.Fatalf("outer = %v", n)
	}
	inner, ok := UnwrapSeq(outer.F).(Cond)
	if !ok {
		t.Fatalf("inner = %v", outer.F)
	}
	if id, ok := inner.T.(Ident); !ok || id.Name != "annul" {
		t.Errorf("annul arm = %v", inner.T)
	}
}

func TestParseSeqStepsAndParallel(t *testing.T) {
	n := parse(t, "a := 1, b := 2 ; c := 3")
	seq, ok := n.(Seq)
	if !ok {
		t.Fatalf("not a seq: %v", n)
	}
	if len(seq.Steps) != 2 || len(seq.Steps[0]) != 2 || len(seq.Steps[1]) != 1 {
		t.Fatalf("shape = %v", seq)
	}
}

func TestParseLambdaAndApply(t *testing.T) {
	n := parse(t, `\r.\op.(op r)`)
	lam, ok := n.(Lambda)
	if !ok || lam.Param != "r" {
		t.Fatalf("outer lambda = %v", n)
	}
	inner, ok := lam.Body.(Lambda)
	if !ok || inner.Param != "op" {
		t.Fatalf("inner = %v", lam.Body)
	}
	app, ok := UnwrapSeq(inner.Body).(Apply)
	if !ok {
		t.Fatalf("body = %v", inner.Body)
	}
	if fn, ok := app.Fn.(Ident); !ok || fn.Name != "op" {
		t.Errorf("fn = %v", app.Fn)
	}
}

func TestParseVectorAndRange(t *testing.T) {
	n := parse(t, "[a b 'c 1..3]")
	vec, ok := n.(Vector)
	if !ok {
		t.Fatalf("not a vector: %v", n)
	}
	if len(vec.Elems) != 6 { // a, b, 'c, 1, 2, 3
		t.Fatalf("elems = %d: %v", len(vec.Elems), vec)
	}
	if s, ok := vec.Elems[2].(Sym); !ok || s.Name != "c" {
		t.Errorf("sym = %v", vec.Elems[2])
	}
	if nu, ok := vec.Elems[5].(Num); !ok || nu.Val != 3 {
		t.Errorf("range end = %v", vec.Elems[5])
	}
}

func TestParseMapApply(t *testing.T) {
	n := parse(t, "branch PSR @ ['ne 'e]")
	ma, ok := n.(MapApply)
	if !ok {
		t.Fatalf("not a map-apply: %v", n)
	}
	if _, ok := ma.Fn.(Apply); !ok {
		t.Errorf("fn = %v (application should bind tighter than @)", ma.Fn)
	}
}

func TestParseMemRef(t *testing.T) {
	n := parse(t, "M[R[rs1] + 4]{2}")
	ix, ok := n.(Index)
	if !ok {
		t.Fatalf("not an index: %v", n)
	}
	if ix.Width == nil {
		t.Fatal("width missing")
	}
	if w, ok := ix.Width.(Num); !ok || w.Val != 2 {
		t.Errorf("width = %v", ix.Width)
	}
}

func TestParseMultiArgCall(t *testing.T) {
	n := parse(t, "cc_add(a, b)")
	fn, args := Spine(n)
	if id, ok := fn.(Ident); !ok || id.Name != "cc_add" {
		t.Fatalf("fn = %v", fn)
	}
	if len(args) != 2 {
		t.Fatalf("args = %d", len(args))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"(", "a :=", "[1..", "a ? ", "M{4}", "\\. x", "'", "a $ b",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Random strings over the language's alphabet must never panic.
	alphabet := "ab01()[]{}+-*/%&|^~!<>=?:,;.\\@' R M pc"
	f := func(idx []uint8) bool {
		var b strings.Builder
		for _, i := range idx {
			b.WriteByte(alphabet[int(i)%len(alphabet)])
		}
		_, _ = Parse(b.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstShadowing(t *testing.T) {
	// \x.x+y with y:=5 substitutes; x stays bound.
	lam := parse(t, `\x.(x + y)`).(Lambda)
	got := Subst(lam, "y", Num{Val: 5})
	if !strings.Contains(got.String(), "5") {
		t.Errorf("y not substituted: %s", got)
	}
	got2 := Subst(lam, "x", Num{Val: 9})
	if strings.Contains(got2.String(), "9") {
		t.Errorf("bound x substituted: %s", got2)
	}
}

func TestWalkVisitsAll(t *testing.T) {
	n := parse(t, "a := M[b + 1]{4} ; c ? d : e")
	count := 0
	Walk(n, func(Node) { count++ })
	if count < 10 {
		t.Errorf("walked only %d nodes", count)
	}
}

// --- evaluator ---

// testMachine is a simple rtl.Machine for evaluator tests.
type testMachine struct {
	fields map[string]int64
	regs   map[string]map[int64]uint64
	mem    map[uint64]uint64
	pc     uint64
	npc    uint64
	hasNPC bool
	annul  bool
	traps  []uint64
}

func newTestMachine() *testMachine {
	return &testMachine{
		fields: map[string]int64{},
		regs:   map[string]map[int64]uint64{"R": {}, "F": {}},
		mem:    map[uint64]uint64{},
	}
}

func (m *testMachine) Field(name string) (int64, bool) {
	v, ok := m.fields[name]
	return v, ok
}
func (m *testMachine) FieldWidth(name string) (int, bool) {
	if name == "simm13" {
		return 13, true
	}
	return 0, false
}
func (m *testMachine) RegAlias(name string) (string, int64, bool) {
	switch name {
	case "PSR":
		return "R", 33, true
	case "Y":
		return "R", 32, true
	}
	return "", 0, false
}
func (m *testMachine) IsRegFile(name string) bool { return name == "R" || name == "F" }
func (m *testMachine) ReadReg(f string, i int64) (uint64, error) {
	if _, ok := testLayout.Slot(f, i); !ok {
		return 0, UnknownReg("read", f, i)
	}
	return m.regs[f][i], nil
}
func (m *testMachine) WriteReg(f string, i int64, v uint64) error {
	if _, ok := testLayout.Slot(f, i); !ok {
		return UnknownReg("write", f, i)
	}
	m.regs[f][i] = v
	return nil
}
func (m *testMachine) ReadMem(a uint64, w int) (uint64, error) { return m.mem[a], nil }
func (m *testMachine) WriteMem(a uint64, w int, v uint64) error {
	m.mem[a] = v
	return nil
}
func (m *testMachine) PC() uint64 { return m.pc }
func (m *testMachine) SetPC(v uint64, delayed bool) {
	m.npc = v
	m.hasNPC = true
}
func (m *testMachine) Annul()              { m.annul = true }
func (m *testMachine) Trap(v uint64) error { m.traps = append(m.traps, v); return nil }

func exec(t *testing.T, src string, m *testMachine) {
	t.Helper()
	if err := Exec(parse(t, src), m); err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
}

func TestExecAssign(t *testing.T) {
	m := newTestMachine()
	m.fields["rd"] = 3
	exec(t, "R[rd] := 7 + 4", m)
	if m.regs["R"][3] != 11 {
		t.Errorf("R[3] = %d", m.regs["R"][3])
	}
}

func TestExecParallelSwap(t *testing.T) {
	// Parallel operations read all inputs before committing: the
	// classic swap.
	m := newTestMachine()
	m.regs["R"][1] = 10
	m.regs["R"][2] = 20
	exec(t, "R[1] := R[2], R[2] := R[1]", m)
	if m.regs["R"][1] != 20 || m.regs["R"][2] != 10 {
		t.Errorf("swap failed: %v", m.regs["R"])
	}
}

func TestExecSequentialSteps(t *testing.T) {
	m := newTestMachine()
	exec(t, "t := 5 ; R[1] := t + 1", m)
	if m.regs["R"][1] != 6 {
		t.Errorf("R[1] = %d", m.regs["R"][1])
	}
}

func TestExecDelayedPC(t *testing.T) {
	m := newTestMachine()
	m.pc = 100
	exec(t, "t := pc + 8 ; pc := t", m)
	if !m.hasNPC || m.npc != 108 {
		t.Errorf("npc = %d has=%v", m.npc, m.hasNPC)
	}
}

func TestExecGuardAndAnnul(t *testing.T) {
	m := newTestMachine()
	m.fields["aflag"] = 1
	exec(t, "aflag = 1 ? annul", m)
	if !m.annul {
		t.Error("annul not taken")
	}
	m2 := newTestMachine()
	m2.fields["aflag"] = 0
	exec(t, "aflag = 1 ? annul", m2)
	if m2.annul {
		t.Error("annul taken with aflag=0")
	}
}

func TestExecTrap(t *testing.T) {
	m := newTestMachine()
	exec(t, "trap(42)", m)
	if len(m.traps) != 1 || m.traps[0] != 42 {
		t.Errorf("traps = %v", m.traps)
	}
}

func TestExecMemory(t *testing.T) {
	m := newTestMachine()
	m.regs["R"][1] = 0x1000
	exec(t, "M[R[1] + 4]{4} := 99", m)
	if m.mem[0x1004] != 99 {
		t.Errorf("mem = %v", m.mem)
	}
	exec(t, "R[2] := M[R[1] + 4]{4}", m)
	if m.regs["R"][2] != 99 {
		t.Errorf("R[2] = %d", m.regs["R"][2])
	}
}

func TestExecSignExtendBuiltins(t *testing.T) {
	m := newTestMachine()
	m.fields["simm13"] = 0x1fff // -1 in 13 bits
	exec(t, "R[1] := sex(simm13)", m)
	if int64(m.regs["R"][1]) != -1 {
		t.Errorf("sex = %#x", m.regs["R"][1])
	}
	exec(t, "R[2] := sexb(0xff)", m)
	if int64(m.regs["R"][2]) != -1 {
		t.Errorf("sexb = %#x", m.regs["R"][2])
	}
	exec(t, "R[3] := sex(6, 4)", m)
	if int64(m.regs["R"][3]) != 6 {
		t.Errorf("sex(6,4) = %#x", m.regs["R"][3])
	}
	exec(t, "R[4] := sex(12, 4)", m)
	if int64(m.regs["R"][4]) != -4 {
		t.Errorf("sex(12,4) = %d", int64(m.regs["R"][4]))
	}
}

func TestExecDivideByZero(t *testing.T) {
	m := newTestMachine()
	if err := Exec(parse(t, "R[1] := udiv(4, 0)"), m); err == nil {
		t.Error("division by zero succeeded")
	}
}

func TestCondTestTable(t *testing.T) {
	// icc = NZVC at bits 23:20.
	cases := []struct {
		name string
		icc  uint64
		want uint64
	}{
		{"e", 0b0100, 1}, {"e", 0, 0},
		{"ne", 0b0100, 0}, {"ne", 0, 1},
		{"l", 0b1000, 1},   // N^V
		{"l", 0b1010, 0},   // N=V
		{"gu", 0, 1},       // !C && !Z
		{"gu", 0b0001, 0},  // C
		{"leu", 0b0001, 1}, // C
		{"cs", 0b0001, 1}, {"cc", 0b0001, 0},
		{"neg", 0b1000, 1}, {"pos", 0b1000, 0},
		{"vs", 0b0010, 1}, {"vc", 0b0010, 0},
		{"a", 0, 1}, {"n", 0b1111, 0},
		{"ge", 0b1010, 1}, // N=V
		{"g", 0b0000, 1}, {"g", 0b0100, 0},
		{"le", 0b0100, 1},
	}
	for _, c := range cases {
		got, err := condTest(c.name, c.icc<<20, nil)
		if err != nil || got != c.want {
			t.Errorf("condTest(%s, icc=%04b) = %d err=%v, want %d", c.name, c.icc, got, err, c.want)
		}
	}
}

func TestFCondTestTable(t *testing.T) {
	// fcc at bits 11:10: 0=E 1=L 2=G 3=U.
	cases := []struct {
		name string
		fcc  uint64
		want uint64
	}{
		{"fe", 0, 1}, {"fe", 1, 0},
		{"fl", 1, 1}, {"fg", 2, 1}, {"fu", 3, 1},
		{"fne", 1, 1}, {"fne", 0, 0},
		{"fge", 2, 1}, {"fge", 1, 0},
		{"fo", 3, 0}, {"fo", 0, 1},
		{"fa", 3, 1}, {"fn", 0, 0},
	}
	for _, c := range cases {
		got, err := condTest(c.name, c.fcc<<10, nil)
		if err != nil || got != c.want {
			t.Errorf("condTest(%s, fcc=%d) = %d err=%v, want %d", c.name, c.fcc, got, err, c.want)
		}
	}
}

func TestCCAddMatchesArithmetic(t *testing.T) {
	// Property: Z iff result zero, N iff bit31, C iff 33-bit carry,
	// V iff signed overflow.
	f := func(a, b uint32) bool {
		icc := ccAdd(a, b) >> 20
		r := a + b
		n := icc>>3&1 == 1
		z := icc>>2&1 == 1
		v := icc>>1&1 == 1
		c := icc&1 == 1
		wantN := r&0x80000000 != 0
		wantZ := r == 0
		sum := int64(int32(a)) + int64(int32(b))
		wantV := sum != int64(int32(r))
		wantC := uint64(a)+uint64(b) > 0xffffffff
		return n == wantN && z == wantZ && v == wantV && c == wantC
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCCSubMatchesArithmetic(t *testing.T) {
	f := func(a, b uint32) bool {
		icc := ccSub(a, b) >> 20
		r := a - b
		n := icc>>3&1 == 1
		z := icc>>2&1 == 1
		v := icc>>1&1 == 1
		c := icc&1 == 1
		diff := int64(int32(a)) - int64(int32(b))
		return n == (r&0x80000000 != 0) && z == (r == 0) &&
			v == (diff != int64(int32(r))) && c == (b > a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignExtendProperty(t *testing.T) {
	// signExtend(v, w) preserves the low w bits and replicates bit
	// w-1 above.
	f := func(v uint32, w8 uint8) bool {
		w := int(w8%31) + 1
		got := signExtend(uint64(v)&((1<<w)-1), w)
		low := got & ((1 << w) - 1)
		if low != uint64(v)&((1<<w)-1) {
			return false
		}
		sign := got>>(uint(w)-1)&1 == 1
		hi := got >> uint(w)
		if sign {
			return hi == (1<<(64-uint(w)))-1
		}
		return hi == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftBuiltins(t *testing.T) {
	m := newTestMachine()
	exec(t, "R[1] := shl(1, 31)", m)
	if m.regs["R"][1] != 0x80000000 {
		t.Errorf("shl = %#x", m.regs["R"][1])
	}
	exec(t, "R[2] := sar(0x80000000, 31)", m)
	if uint32(m.regs["R"][2]) != 0xffffffff {
		t.Errorf("sar = %#x", m.regs["R"][2])
	}
	exec(t, "R[3] := shr(0x80000000, 31)", m)
	if m.regs["R"][3] != 1 {
		t.Errorf("shr = %#x", m.regs["R"][3])
	}
}

func TestFloatBuiltins(t *testing.T) {
	m := newTestMachine()
	// 3.0f = 0x40400000, 4.0f = 0x40800000; 3*4 = 12.0f = 0x41400000
	exec(t, "R[1] := fmul(0x40400000, 0x40800000)", m)
	if m.regs["R"][1] != 0x41400000 {
		t.Errorf("fmul = %#x", m.regs["R"][1])
	}
	exec(t, "R[2] := fstoi(0x41400000)", m)
	if m.regs["R"][2] != 12 {
		t.Errorf("fstoi = %d", m.regs["R"][2])
	}
	exec(t, "R[3] := fcmp(0x3f800000, 0x40000000)", m) // 1.0 < 2.0 → L
	if m.regs["R"][3]>>10 != 1 {
		t.Errorf("fcmp = %#x", m.regs["R"][3])
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	m := newTestMachine()
	// Short-circuit: the rhs (a division by zero) must not evaluate.
	exec(t, "R[1] := 0 && udiv(1, 0)", m)
	if m.regs["R"][1] != 0 {
		t.Errorf("&& = %d", m.regs["R"][1])
	}
	exec(t, "R[2] := 1 || udiv(1, 0)", m)
	if m.regs["R"][2] != 1 {
		t.Errorf("|| = %d", m.regs["R"][2])
	}
}
