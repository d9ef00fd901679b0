package machine

import (
	"testing"
	"testing/quick"
)

// regsOf builds a set from raw values (mod NumRegs).
func regsOf(vals []uint16) RegSet {
	var s RegSet
	for _, v := range vals {
		s = s.Add(Reg(v % NumRegs))
	}
	return s
}

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	s = s.Add(3).Add(64).Add(127)
	if !s.Has(3) || !s.Has(64) || !s.Has(127) || s.Has(4) {
		t.Errorf("membership broken: %s", s)
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	s = s.Remove(64)
	if s.Has(64) || s.Len() != 2 {
		t.Errorf("remove broken: %s", s)
	}
	// Out-of-range adds are ignored.
	if !s.Add(200).Equal(s) {
		t.Error("out-of-range add changed the set")
	}
}

func TestRegSetSetLaws(t *testing.T) {
	type vecs struct{ A, B, C []uint16 }
	f := func(v vecs) bool {
		a, b, c := regsOf(v.A), regsOf(v.B), regsOf(v.C)
		// Commutativity and associativity of union.
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			return false
		}
		// De Morgan-ish: (a ∪ b) \ c == (a\c) ∪ (b\c).
		if !a.Union(b).Minus(c).Equal(a.Minus(c).Union(b.Minus(c))) {
			return false
		}
		// Intersection distributes over union.
		if !a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c))) {
			return false
		}
		// x ∈ a∪b iff x ∈ a or x ∈ b (spot-check via Len bounds).
		u := a.Union(b)
		if u.Len() > a.Len()+b.Len() || u.Len() < a.Len() || u.Len() < b.Len() {
			return false
		}
		// a \ a is empty; a ∩ a is a.
		return a.Minus(a).IsEmpty() && a.Intersect(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegSetForEachOrdered(t *testing.T) {
	s := NewRegSet(5, 1, 127, 64, 63)
	var got []Reg
	s.ForEach(func(r Reg) { got = append(got, r) })
	want := []Reg{1, 5, 63, 64, 127}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	regs := s.Regs()
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("Regs() = %v", regs)
		}
	}
	// First walks the same order, across the 64-bit boundary.
	for i, rest := 0, s; ; i++ {
		r, ok := rest.First()
		if ok != (i < len(want)) || ok && r != want[i] {
			t.Fatalf("First #%d = %d, %v", i, r, ok)
		}
		if !ok {
			break
		}
		rest = rest.Remove(r)
	}
}

func TestRegPredicates(t *testing.T) {
	if !Reg(0).IsInt() || Reg(32).IsInt() {
		t.Error("IsInt broken")
	}
	if !FloatBase.IsFloat() || Reg(31).IsFloat() || Reg(FloatBase+32).IsFloat() {
		t.Error("IsFloat broken")
	}
}

func TestCategoryPredicates(t *testing.T) {
	controls := []Category{CatBranch, CatJumpDirect, CatJumpIndirect, CatCallDirect, CatCallIndirect, CatReturn}
	for _, c := range controls {
		if !c.IsControl() {
			t.Errorf("%s should be control", c)
		}
	}
	for _, c := range []Category{CatCompute, CatLoad, CatStore, CatSystem, CatInvalid} {
		if c.IsControl() {
			t.Errorf("%s should not be control", c)
		}
	}
	if !CatCallDirect.IsCall() || CatJumpDirect.IsCall() {
		t.Error("IsCall broken")
	}
	for _, c := range []Category{CatLoad, CatStore, CatLoadStore} {
		if !c.IsMemory() {
			t.Errorf("%s should be memory", c)
		}
	}
	if CatCompute.IsMemory() {
		t.Error("compute is not memory")
	}
}

func TestInstAccessors(t *testing.T) {
	inst := NewInst(InstSpec{
		Word:        0x12345678,
		Name:        "frob",
		Cat:         CatBranch,
		Reads:       NewRegSet(1, 2),
		Writes:      NewRegSet(3),
		MemWidth:    0,
		DelaySlots:  1,
		AnnulBit:    true,
		Conditional: true,
		Target:      func(pc uint32) (uint32, bool) { return pc + 8, true },
		Fields:      FieldVals{Names: []string{"rd"}, Vals: []uint32{3}},
	})
	if inst.Word() != 0x12345678 || inst.Name() != "frob" {
		t.Error("basic accessors")
	}
	if !inst.Valid() {
		t.Error("branch should be valid")
	}
	if tgt, ok := inst.StaticTarget(100); !ok || tgt != 108 {
		t.Errorf("target = %d ok=%v", tgt, ok)
	}
	if v, ok := inst.Field("rd"); !ok || v != 3 {
		t.Errorf("field = %d ok=%v", v, ok)
	}
	if _, ok := inst.Field("nope"); ok {
		t.Error("phantom field")
	}
	if inst.IsAnnulledUncond() {
		t.Error("conditional branch is not annulled-unconditional")
	}
	uncond := NewInst(InstSpec{Cat: CatJumpDirect, AnnulBit: true})
	if !uncond.IsAnnulledUncond() {
		t.Error("ba,a-like should be annulled-unconditional")
	}
	// What ends a block, and how many words it governs: a delayed
	// branch and its slot, an annul (bn,a) and the word it skips, a
	// transfer without a slot, and a plain word.
	for _, c := range []struct {
		what string
		in   *Inst
		ends bool
		span int
	}{
		{"delayed branch", inst, true, 2},
		{"annul", NewInst(InstSpec{Cat: CatCompute, AnnulBit: true}), true, 2},
		{"undelayed jump", NewInst(InstSpec{Cat: CatJumpDirect}), true, 1},
		{"compute", NewInst(InstSpec{Cat: CatCompute}), false, 1},
	} {
		if c.in.EndsBlock() != c.ends || c.in.Span() != c.span {
			t.Errorf("%s: EndsBlock %v Span %d, want %v %d", c.what, c.in.EndsBlock(), c.in.Span(), c.ends, c.span)
		}
	}
	invalid := NewInst(InstSpec{Word: 0})
	if invalid.Valid() {
		t.Error("zero spec should be invalid")
	}
	if _, ok := invalid.StaticTarget(0); ok {
		t.Error("invalid has no target")
	}
}
