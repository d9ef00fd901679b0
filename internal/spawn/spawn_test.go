package spawn

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/telemetry"
)

// toyDesc is a minimal machine exercising the description features:
// matrix patterns with holes, val lambdas, @ expansion, a zero
// register, memory, delayed control transfer, and a trap.
const toyDesc = `
machine toy

instruction{32} fields
  op 28:31, rd 24:27, rs1 20:23, rs2 16:19, imm16 0:15, cflag 15:15

register integer{32} R[17]
alias integer{32} CC is R[16]
register integer{32} pc
zero is R[0]

pat [ add sub _ ld st ] is op=[0..4]
pat jmp is op=5
pat br is op=6
pat call is op=7
pat halt is op=8

val simm is sex(imm16)
val binop is \f.(R[rd] := f R[rs1] R[rs2])

sem add is R[rd] := R[rs1] + R[rs2], CC := cc_add(R[rs1], R[rs2])
sem sub is R[rd] := R[rs1] - R[rs2]
sem ld is R[rd] := M[R[rs1] + simm]{4}
sem st is M[R[rs1] + simm]{4} := R[rd]
sem jmp is t := R[rs1] ; pc := t
sem br is t := pc + simm ; ('ne CC) ? pc := t
sem call is t := pc + simm, R[15] := pc ; pc := t
sem halt is trap(imm16)
`

func toy(t *testing.T) *Desc {
	t.Helper()
	d, err := ParseDesc(toyDesc)
	if err != nil {
		t.Fatalf("ParseDesc: %v", err)
	}
	return d
}

// word builds a toy instruction.
func word(d *Desc, fields map[string]uint32) uint32 {
	var w uint32
	for name, v := range fields {
		f, _ := d.Field(name)
		w = f.Insert(w, v)
	}
	return w
}

func TestFieldExtractInsert(t *testing.T) {
	d := toy(t)
	f, ok := d.Field("rd")
	if !ok || f.Width() != 4 {
		t.Fatalf("rd = %+v", f)
	}
	w := f.Insert(0, 0xA)
	if f.Extract(w) != 0xA {
		t.Errorf("roundtrip failed: %#x", w)
	}
	if f.Insert(w, 0x5) != f.Insert(0, 0x5) {
		t.Errorf("Insert did not clear old bits")
	}
}

func TestMatrixExpansionWithHoles(t *testing.T) {
	d := toy(t)
	if _, ok := d.Lookup("add"); !ok {
		t.Error("add missing")
	}
	if _, ok := d.Lookup("st"); !ok {
		t.Error("st missing")
	}
	// op=2 is a hole: must not decode.
	if def := d.DecodeRaw(word(d, map[string]uint32{"op": 2})); def != nil {
		t.Errorf("hole decoded as %s", def.Name)
	}
	// op values assigned in order.
	if def, _ := d.Lookup("sub"); def.Fixed["op"] != 1 {
		t.Errorf("sub op = %d", def.Fixed["op"])
	}
	if def, _ := d.Lookup("st"); def.Fixed["op"] != 4 {
		t.Errorf("st op = %d", def.Fixed["op"])
	}
}

func TestClassification(t *testing.T) {
	d := toy(t)
	cases := map[string]machine.Category{
		"add":  machine.CatCompute,
		"ld":   machine.CatLoad,
		"st":   machine.CatStore,
		"br":   machine.CatBranch,
		"call": machine.CatCallDirect,
		"halt": machine.CatSystem,
	}
	for name, want := range cases {
		def, _ := d.Lookup(name)
		if def.Info.Cat != want {
			t.Errorf("%s: %s, want %s", name, def.Info.Cat, want)
		}
	}
	// jmp's category is per-word: through a real register it is
	// indirect; through the zero register it is a (direct) literal
	// jump.  (Definition-level info uses zeroed fields, so it reads
	// as direct there.)
	dec := NewDecoder(NewMemo(d, nil), nil)
	if c := dec.Decode(word(d, map[string]uint32{"op": 5, "rs1": 2})).Category(); c != machine.CatJumpIndirect {
		t.Errorf("jmp r2: %s", c)
	}
	if c := dec.Decode(word(d, map[string]uint32{"op": 5, "rs1": 0})).Category(); c != machine.CatJumpDirect {
		t.Errorf("jmp r0: %s", c)
	}
}

func TestEffectsReadsWrites(t *testing.T) {
	d := toy(t)
	def, _ := d.Lookup("add")
	eff := d.EffectsFor(def, d.FieldVals(word(d, map[string]uint32{"op": 0, "rd": 3, "rs1": 1, "rs2": 2})))
	if !eff.Reads.Equal(machine.NewRegSet(1, 2)) {
		t.Errorf("reads = %s", eff.Reads)
	}
	// writes rd and CC (R[16]).
	if !eff.Writes.Has(3) || !eff.Writes.Has(16) {
		t.Errorf("writes = %s", eff.Writes)
	}
}

func TestZeroRegSuppressed(t *testing.T) {
	d := toy(t)
	def, _ := d.Lookup("add")
	eff := d.EffectsFor(def, d.FieldVals(word(d, map[string]uint32{"op": 0, "rd": 0, "rs1": 0, "rs2": 2})))
	if eff.Reads.Has(0) || eff.Writes.Has(0) {
		t.Errorf("zero register leaked: r=%s w=%s", eff.Reads, eff.Writes)
	}
}

func TestDelaySlotDerivation(t *testing.T) {
	d := toy(t)
	for _, name := range []string{"jmp", "br", "call"} {
		def, _ := d.Lookup(name)
		if def.Info.DelaySlots != 1 {
			t.Errorf("%s delay slots = %d", name, def.Info.DelaySlots)
		}
	}
	def, _ := d.Lookup("add")
	if def.Info.DelaySlots != 0 {
		t.Errorf("add delay slots = %d", def.Info.DelaySlots)
	}
}

func TestStaticTargetPCRelative(t *testing.T) {
	d := toy(t)
	def, _ := d.Lookup("br")
	fields := d.FieldVals(word(d, map[string]uint32{"op": 6, "imm16": 0x20}))
	tgt, ok := d.StaticTarget(def, fields, 0x1000)
	if !ok || tgt != 0x1020 {
		t.Errorf("target = %#x ok=%v", tgt, ok)
	}
	// Negative displacement through sign extension.
	fields2 := d.FieldVals(word(d, map[string]uint32{"op": 6, "imm16": 0xfffc}))
	tgt2, ok := d.StaticTarget(def, fields2, 0x1000)
	if !ok || tgt2 != 0x0ffc {
		t.Errorf("target = %#x ok=%v", tgt2, ok)
	}
	// The register jump has no static target.
	jdef, _ := d.Lookup("jmp")
	if _, ok := d.StaticTarget(jdef, d.FieldVals(word(d, map[string]uint32{"op": 5, "rs1": 2})), 0); ok {
		t.Error("register jump has a static target")
	}
	// Jump through the zero register IS static (literal 0 + nothing).
	if tgt, ok := d.StaticTarget(jdef, d.FieldVals(word(d, map[string]uint32{"op": 5, "rs1": 0})), 0); !ok || tgt != 0 {
		t.Errorf("zero-reg jump: %#x ok=%v", tgt, ok)
	}
}

func TestLinkDetection(t *testing.T) {
	d := toy(t)
	def, _ := d.Lookup("call")
	eff := d.EffectsFor(def, d.fixedVals(def, true))
	if !eff.HasLink || eff.Link != 15 {
		t.Errorf("link = %v/%d", eff.HasLink, eff.Link)
	}
}

func TestMemWidth(t *testing.T) {
	d := toy(t)
	def, _ := d.Lookup("ld")
	eff := d.EffectsFor(def, d.fixedVals(def, true))
	if !eff.ReadsMem || eff.MemWidth() != 4 {
		t.Errorf("ld: readsMem=%v width=%d", eff.ReadsMem, eff.MemWidth())
	}
	sdef, _ := d.Lookup("st")
	seff := d.EffectsFor(sdef, d.fixedVals(sdef, true))
	if !seff.WritesMem || seff.ReadsMem {
		t.Errorf("st: %+v", seff)
	}
}

func TestDescErrors(t *testing.T) {
	bad := []struct {
		name, src string
	}{
		{"no sem", "machine x\ninstruction{32} fields\n  op 28:31\nregister integer{32} R[4]\npat foo is op=1\n"},
		{"dup field", "machine x\ninstruction{32} fields\n  op 28:31, op 0:3\n"},
		{"field out of range", "machine x\ninstruction{32} fields\n  op 30:33\n"},
		{"name count mismatch", "machine x\ninstruction{32} fields\n  op 28:31\npat [a b] is op=[0..2]\nsem a is trap(0)\n"},
		{"unknown field in pat", "machine x\ninstruction{32} fields\n  op 28:31\npat a is bogus=1\nsem a is trap(0)\n"},
		{"sem for unknown inst", "machine x\ninstruction{32} fields\n  op 28:31\nsem nothing is trap(0)\n"},
		{"duplicate inst", "machine x\ninstruction{32} fields\n  op 28:31\npat a is op=1\npat a is op=2\n"},
		{"alias of unknown file", "machine x\ninstruction{32} fields\n  op 28:31\nalias integer{32} Q is Z[1]\n"},
	}
	for _, c := range bad {
		if _, err := ParseDesc(c.src); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecoderInterning(t *testing.T) {
	d := toy(t)
	dec := NewDecoder(NewMemo(d, nil), nil)
	w := word(d, map[string]uint32{"op": 0, "rd": 1})
	a := dec.Decode(w)
	if a != dec.Decode(w) {
		t.Error("interning broken")
	}
	dec.SetIntern(false)
	if dec.Decode(w) == dec.Decode(w) {
		t.Error("uninterned decode returned shared object")
	}
}

// TestDecoderParallelInterning hammers one decoder from many
// goroutines (run under -race) and checks every goroutine observed
// the same canonical *Inst per word and the sharing counters add up.
func TestDecoderParallelInterning(t *testing.T) {
	d := toy(t)
	dec := NewDecoder(NewMemo(d, nil), nil)
	words := []uint32{
		word(d, map[string]uint32{"op": 0, "rd": 1, "rs1": 2, "rs2": 3}),
		word(d, map[string]uint32{"op": 1, "rd": 4, "rs1": 5}),
		word(d, map[string]uint32{"op": 3, "rd": 6, "rs1": 7, "imm16": 16}),
		word(d, map[string]uint32{"op": 6, "imm16": 8}),
		word(d, map[string]uint32{"op": 8}),
	}
	const goroutines, rounds = 16, 200
	got := make([][]*machine.Inst, goroutines)
	var wg sync.WaitGroup
	for gi := range got {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			mine := make([]*machine.Inst, len(words))
			for r := 0; r < rounds; r++ {
				for wi, w := range words {
					in := dec.Decode(w)
					if mine[wi] == nil {
						mine[wi] = in
					} else if mine[wi] != in {
						t.Errorf("goroutine %d: word %#x decoded to two objects", gi, w)
						return
					}
				}
			}
			got[gi] = mine
		}(gi)
	}
	wg.Wait()
	for gi := 1; gi < goroutines; gi++ {
		for wi := range words {
			if got[gi][wi] != got[0][wi] {
				t.Errorf("goroutines 0 and %d disagree on word %d", gi, wi)
			}
		}
	}
	decodes, _ := dec.SharingStats()
	if want := uint64(goroutines * rounds * len(words)); decodes != want {
		t.Errorf("decodes = %d, want %d", decodes, want)
	}
}

// TestMemoOwnsInstructions runs two decoders over one memo from many
// goroutines (run under -race).  A word decodes to its memo entry's
// instruction in both decoders for as long as its slot holds it, and a
// new one after a collision evicted it; a warm Decode allocates
// nothing; and a word's compiled program lives on its memo entry, so
// it compiles once however many decoders run it.
func TestMemoOwnsInstructions(t *testing.T) {
	d := toy(t)
	memo := NewMemo(d, nil)
	decs := [2]*TableDecoder{NewDecoder(memo, nil), NewDecoder(memo, nil)}
	slots := map[uint32]bool{}
	var words []uint32
	for i := uint32(0); len(words) < 300; i++ {
		w := word(d, map[string]uint32{"op": i % 4, "rd": i % 16, "rs1": i / 16 % 16, "imm16": i})
		if !slots[memoSlot(w)] {
			slots[memoSlot(w)] = true
			words = append(words, w)
		}
	}
	const goroutines = 8
	got := make([][]*machine.Inst, goroutines)
	var wg sync.WaitGroup
	for gi := range got {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			dec := decs[gi%2]
			mine := make([]*machine.Inst, len(words))
			for r := 0; r < 4; r++ {
				for k := range words {
					i := (k + gi*len(words)/goroutines) % len(words) // a different order each
					in := dec.Decode(words[i])
					if mine[i] != nil && mine[i] != in {
						t.Errorf("goroutine %d: word %#x decoded to two objects", gi, words[i])
						return
					}
					mine[i] = in
				}
			}
			got[gi] = mine
		}(gi)
	}
	wg.Wait()
	for gi, mine := range got {
		for i, in := range mine {
			if in == nil || in != &memo.lookup(words[i]).inst || in.Word() != words[i] {
				t.Fatalf("goroutine %d: word %#x is not its memo entry's instruction", gi, words[i])
			}
		}
	}

	// a and b share a slot: each decode of one evicts the other.
	a := words[0]
	var b uint32
	for imm := uint32(1); ; imm++ {
		if b = word(d, map[string]uint32{"op": 3, "rd": 4, "rs1": 5, "imm16": imm}); memoSlot(b) == memoSlot(a) {
			break
		}
	}
	first := decs[0].Decode(a)
	if decs[1].Decode(a) != first {
		t.Error("two decoders returned two objects for one word")
	}
	if in := decs[1].Decode(b); in.Word() != b || decs[0].Decode(b) != in {
		t.Errorf("colliding word %#x decoded to %#x, or to two objects", b, in.Word())
	}
	again := decs[0].Decode(a)
	if again == first || again.Word() != a || decs[1].Decode(a) != again {
		t.Error("a re-derived word must be one new object")
	}

	if n := testing.AllocsPerRun(100, func() { decs[0].Decode(a) }); n != 0 {
		t.Errorf("a warm Decode allocates %.0f times", n)
	}

	if telemetry.Default() == nil {
		defer telemetry.Disable()
	}
	compiles := telemetry.Enable().Counter("rtl.compiles")
	for i, want := range []uint64{1, 0, 0, 0} {
		before := compiles.Value()
		if _, err := decs[i/2].Decode(a).Sem().(*InstSem).Compiled(); err != nil {
			t.Fatal(err)
		}
		if n := compiles.Value() - before; n != want {
			t.Errorf("Compiled call %d (decoder %d): %d compiles, want %d", i, i/2, n, want)
		}
	}
}

// TestGlueHookRuns checks each glue runs and that two memos over one
// description with different glue share nothing: each decoder sees
// its own glue's answer for the same word.
func TestGlueHookRuns(t *testing.T) {
	d := toy(t)
	calls := map[machine.Category]int{}
	glueFor := func(cat machine.Category) Glue {
		return func(def *InstDef, fields machine.FieldVals, spec machine.InstSpec) machine.InstSpec {
			calls[cat]++
			if rs1, _ := fields.Get("rs1"); def.Name == "jmp" && rs1 == 3 {
				spec.Cat = cat
			}
			return spec
		}
	}
	ret := NewDecoder(NewMemo(d, glueFor(machine.CatReturn)), nil)
	icall := NewDecoder(NewMemo(d, glueFor(machine.CatCallIndirect)), nil)
	w := word(d, map[string]uint32{"op": 5, "rs1": 3})
	for i := 0; i < 2; i++ {
		if c := ret.Decode(w).Category(); c != machine.CatReturn {
			t.Errorf("return glue's decoder: %s", c)
		}
		if c := icall.Decode(w).Category(); c != machine.CatCallIndirect {
			t.Errorf("indirect-call glue's decoder: %s", c)
		}
	}
	if calls[machine.CatReturn] != 1 || calls[machine.CatCallIndirect] != 1 {
		t.Errorf("glue calls = %v, want one per memo", calls)
	}
	if c := NewDecoder(NewMemo(d, nil), nil).Decode(w).Category(); c != machine.CatJumpIndirect {
		t.Errorf("glueless decoder: %s", c)
	}
}

// TestMemoSlotCollision alternates two words that share a slot: each
// lookup must return its own word's spec, re-deriving it.
func TestMemoSlotCollision(t *testing.T) {
	d := toy(t)
	a := word(d, map[string]uint32{"op": 0, "rd": 1, "rs1": 2, "rs2": 3})
	var b uint32
	for imm := uint32(1); ; imm++ {
		b = word(d, map[string]uint32{"op": 3, "rd": 4, "rs1": 5, "imm16": imm})
		if memoSlot(b) == memoSlot(a) {
			break
		}
	}
	m := NewMemo(d, nil)
	for i := 0; i < 6; i++ {
		w, name := a, "add"
		if i%2 == 1 {
			w, name = b, "ld"
		}
		spec := m.Spec(w)
		if spec.Word != w || spec.Name != name || !reflect.DeepEqual(spec.Fields, d.FieldVals(w)) {
			t.Fatalf("lookup %d of %#x: got %s %#x %v", i, w, spec.Name, spec.Word, spec.Fields)
		}
		if got := m.derived.Load(); got != uint64(i+1) {
			t.Errorf("lookup %d: %d derivations, want %d", i, got, i+1)
		}
	}
	if m.Spec(b); m.derived.Load() != 6 {
		t.Errorf("a repeated lookup re-derived: %d derivations", m.derived.Load())
	}
}

// TestMemoSharedByDecoders runs many decoders, each on its own
// goroutines, over one memo (run under -race): every decoder must
// return the memo's one instruction per word, all of them must agree
// with a fresh derivation, and the memo must count one derivation per
// word however many goroutines raced to derive it.
func TestMemoSharedByDecoders(t *testing.T) {
	d := toy(t)
	var words []uint32
	slots := map[uint32]uint32{}
	for op := uint32(0); op <= 8; op++ {
		for r := uint32(0); r < 4; r++ {
			w := word(d, map[string]uint32{"op": op, "rd": r, "rs1": r + 1, "rs2": r + 2, "imm16": r * 8})
			if o, ok := slots[memoSlot(w)]; ok {
				t.Fatalf("words %#x and %#x share a memo slot", o, w)
			}
			slots[memoSlot(w)] = w
			words = append(words, w)
		}
	}
	memo := NewMemo(d, nil)
	const decoders, goroutines = 8, 4
	decs := make([]*TableDecoder, decoders)
	got := make([][][]*machine.Inst, decoders)
	var wg sync.WaitGroup
	for di := range decs {
		decs[di] = NewDecoder(memo, nil)
		got[di] = make([][]*machine.Inst, goroutines)
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(di, gi int) {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					for _, w := range words {
						decs[di].Decode(w)
					}
				}
				for _, w := range words {
					got[di][gi] = append(got[di][gi], decs[di].Decode(w))
				}
			}(di, gi)
		}
	}
	wg.Wait()
	fresh := NewDecoder(NewMemo(d, nil), nil)
	for di := range decs {
		for wi, w := range words {
			in := got[di][0][wi]
			for gi := 1; gi < goroutines; gi++ {
				if got[di][gi][wi] != in {
					t.Errorf("decoder %d: word %#x interned twice", di, w)
				}
			}
			if di > 0 && in != got[0][0][wi] {
				t.Errorf("decoders 0 and %d hold two instructions for %#x", di, w)
			}
			if want := fresh.Decode(w); in.String() != want.String() || in.Category() != want.Category() ||
				in.Reads() != want.Reads() || in.Writes() != want.Writes() {
				t.Errorf("decoder %d: %#x decoded as %s, fresh %s", di, w, in, want)
			}
		}
	}
	if n := memo.derived.Load(); n != uint64(len(words)) {
		t.Errorf("%d derivations of %d words, want one each", n, len(words))
	}
}

func TestMetaEvalFoldsConstantGuards(t *testing.T) {
	d := toy(t)
	// 'a folds to 1, selecting the then-arm.
	n, err := d.metaEval(mustParse(t, "('a CC) ? x := 1 : x := 2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(n.String(), "1") || strings.Contains(n.String(), "2") {
		t.Errorf("fold result: %s", n)
	}
}

func TestGenerateGo(t *testing.T) {
	out := GenerateGo(toy(t))
	if !strings.Contains(out, "package toytab") {
		t.Error("missing package clause")
	}
	if !strings.Contains(out, `"halt"`) || !strings.Contains(out, `"call"`) {
		t.Error("missing instructions")
	}
	if strings.Count(out, "\n") < 50 {
		t.Error("suspiciously small generated file")
	}
}

func mustParse(t *testing.T, src string) rtl.Node {
	t.Helper()
	n, err := rtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPCRelativeProof checks which semantic shapes spawn accepts as
// pc + K: pc once, under + or the left of -, through temporaries
// assigned once, with no guard reading pc.
func TestPCRelativeProof(t *testing.T) {
	for sem, want := range map[string]bool{
		"t := pc + simm ; pc := t":                 true,
		"pc := pc - simm + 4":                      true,
		"t := pc + R[rs1] ; ('ne CC) ? pc := t":    true,
		"(rd = 1) ? pc := pc + 8 : pc := pc + 4":   true,
		"pc := simm - pc":                          false,
		"pc := (pc & 0xf0000000) | imm16":          false,
		"pc := pc + pc":                            false,
		"pc := -pc":                                false,
		"t := pc + 4 ; (t == 8) ? pc := t":         false,
		"(pc == 0) ? pc := pc + 4":                 false,
		"t := 0 ; t := pc + simm ; pc := t":        false,
		"t := R[rs1] ; pc := t":                    false,
		"R[rd] := pc + 4":                          false,
		"t := sex(pc + 4, 16) ; pc := t":           false,
		"t := pc + 4, u := t + simm ; pc := u + 0": true,
	} {
		d, err := ParseDesc(toyDesc + "pat x is op=9\nsem x is " + sem + "\n")
		if err != nil {
			t.Fatalf("%s: %v", sem, err)
		}
		if def, _ := d.Lookup("x"); def.Info.PCRelative != want {
			t.Errorf("%s: PCRelative %v, want %v", sem, def.Info.PCRelative, want)
		}
	}
}
