package spawn_test

import (
	"testing"

	"eel/internal/alpha"
	"eel/internal/mips"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// targetPCs are the addresses every closed-form target is checked at:
// the bottom of memory, the top of the signed and unsigned ranges
// (where pc + K wraps), and a typical text address.
var targetPCs = []uint32{0, 4, 0x7ffffffc, 0xfffffffc, 0x10040}

// transferSweep is one ISA's direct transfers, encoded by the ISA's
// own encoders at the extremes of their displacement fields.
type transferSweep struct {
	isa   string
	dec   *spawn.TableDecoder
	words map[string][]uint32 // def name → encoded words
}

func sweepWords(t *testing.T, names []string, disps []int32, enc func(string, int32) (uint32, error)) map[string][]uint32 {
	t.Helper()
	out := map[string][]uint32{}
	for _, name := range names {
		for _, d := range disps {
			w, err := enc(name, d)
			if err != nil {
				t.Fatalf("%s %d: %v", name, d, err)
			}
			out[name] = append(out[name], w)
		}
	}
	return out
}

func extremes(bits uint) []int32 {
	return []int32{-1 << (bits - 1), -1, 0, 1, 1<<(bits-1) - 1}
}

func transferSweeps(t *testing.T) []transferSweep {
	sparcBranches := []string{"be", "ble", "bl", "bleu", "bcs", "bneg", "bvs", "ba", "bne", "bg", "bge", "bgu", "bcc", "bpos", "bvc",
		"fbne", "fblg", "fbul", "fbl", "fbug", "fbg", "fbu", "fba", "fbe", "fbue", "fbge", "fbuge", "fble", "fbule", "fbo"}
	sp := sweepWords(t, sparcBranches, extremes(22), func(name string, d int32) (uint32, error) {
		return sparc.EncodeBranch(name, d%2 != 0, d) // odd displacements also set the annul bit
	})
	for name, ws := range sweepWords(t, []string{"call"}, extremes(30), func(_ string, d int32) (uint32, error) { return sparc.EncodeCall(d) }) {
		sp[name] = ws
	}
	mipsBranch := func(name string, d int32) (uint32, error) {
		if name == "bltz" || name == "bgez" {
			return mips.EncodeBranchZ(name, 1, d)
		}
		return mips.EncodeBranch(name, 1, 2, d)
	}
	alphaBranch := func(name string, d int32) (uint32, error) { return alpha.EncodeBranch(name, 26, d) }
	return []transferSweep{
		{"sparc", sparc.NewDecoder(), sp},
		{"mips", mips.NewDecoder(), sweepWords(t, []string{"beq", "bne", "blez", "bgtz", "bltz", "bgez"}, extremes(16), mipsBranch)},
		{"alpha", alpha.NewDecoder(), sweepWords(t, []string{"br", "bsr", "beq", "bne", "blt", "ble", "bgt", "bge"}, extremes(21), alphaBranch)},
	}
}

// TestClosedFormTargetsMatchEvaluator checks every definition spawn
// proved pc-relative against the description's AST evaluator: on each
// ISA, every such definition is swept at its encoder's displacement
// extremes and at every pc in targetPCs, and the decoded
// instruction's folded target must equal what the evaluator computes.
func TestClosedFormTargetsMatchEvaluator(t *testing.T) {
	for _, sw := range transferSweeps(t) {
		d := sw.dec.Desc()
		for _, def := range d.Insts {
			if _, swept := sw.words[def.Name]; def.Info.PCRelative != swept {
				t.Errorf("%s %s: PCRelative %v, but swept %v", sw.isa, def.Name, def.Info.PCRelative, swept)
			}
		}
		for name, words := range sw.words {
			for _, w := range words {
				inst := sw.dec.Decode(w)
				if inst.Name() != name {
					t.Fatalf("%s: %08x decodes as %q, want %q", sw.isa, w, inst.Name(), name)
				}
				def := d.DecodeRaw(w)
				for _, pc := range targetPCs {
					got, gok := inst.StaticTarget(pc)
					want, wok := d.StaticTarget(def, d.FieldVals(w), pc)
					if got != want || gok != wok || !gok {
						t.Errorf("%s %s %08x at pc %#x: folded (%#x, %v), evaluator (%#x, %v)",
							sw.isa, name, w, pc, got, gok, want, wok)
					}
				}
			}
		}
	}
}

// TestRegionJumpsStayOnEvaluator pins MIPS j/jal, whose target splices
// pc's 256 MiB region into the word (pc & 0xf0000000 | target26<<2),
// to the evaluator: the target is not pc + K, and crossing a region
// boundary changes it by more than the pc moved.
func TestRegionJumpsStayOnEvaluator(t *testing.T) {
	dec := mips.NewDecoder()
	d := dec.Desc()
	for _, name := range []string{"j", "jal"} {
		def, _ := d.Lookup(name)
		if def.Info.PCRelative {
			t.Errorf("%s proved pc-relative", name)
		}
		for _, tw := range []uint32{0, 1, 1<<26 - 1} {
			w, err := mips.EncodeJ(name, tw)
			if err != nil {
				t.Fatal(err)
			}
			inst := dec.Decode(w)
			for _, pc := range append(targetPCs, 0x0ffffffc, 0x10000000) {
				got, ok := inst.StaticTarget(pc)
				want := pc&0xf0000000 | tw<<2
				if ev, _ := d.StaticTarget(def, d.FieldVals(w), pc); !ok || got != want || ev != want {
					t.Errorf("%s %#x at pc %#x: got (%#x, %v), evaluator %#x, want %#x", name, tw, pc, got, ok, ev, want)
				}
			}
		}
	}
}

// TestClosedFormTargetAllocs asserts a folded target is a bare add:
// asking for it allocates nothing.
func TestClosedFormTargetAllocs(t *testing.T) {
	w, err := sparc.EncodeBranch("bne", false, -7)
	if err != nil {
		t.Fatal(err)
	}
	inst := sparc.NewDecoder().Decode(w)
	var sink uint32
	if n := testing.AllocsPerRun(100, func() {
		tgt, _ := inst.StaticTarget(0x10040)
		sink += tgt
	}); n != 0 {
		t.Errorf("StaticTarget allocated %v times per call", n)
	}
	if sink != 101*(0x10040-28) { // AllocsPerRun's warm-up call, then 100 measured
		t.Errorf("unexpected targets (sum %#x)", sink)
	}
}
