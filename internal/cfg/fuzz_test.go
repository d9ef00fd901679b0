package cfg_test

import (
	"testing"

	_ "eel/internal/alpha" // register the Alpha architecture
	"eel/internal/asm"
	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/progen"
)

// fuzzArchs are the machines FuzzBuildCFG decodes its text for.
var fuzzArchs = []string{"sparc", "mips32e", "alpha64e"}

// FuzzBuildCFG builds the CFG of arbitrary text, as one routine
// entered at a fuzzed word, on every registered description: Build
// must not panic; each normal block must be contiguous and end at its
// first word that ends blocks (machine.Inst.EndsBlock); the word an
// annul skips must follow it in no block and take none of its edges;
// and liveness, dominators and loops must run on the graph.
func FuzzBuildCFG(f *testing.F) {
	p, err := progen.Generate(progen.DefaultConfig(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), p.File.Text().Data[:512], uint16(0))
	f.Add(uint8(0), asm.MustAssemble(`
	mov 5, %o0
	bn,a L1
	add %o0, 100, %o0
L1:	cmp %o0, 5
	be,a L1
	fbn,a L1
	retl
	nop
`, 0x10000).Bytes, uint16(0))
	f.Add(uint8(1), []byte{0x03, 0xe0, 0x00, 0x08, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0))
	f.Add(uint8(2), []byte{0x6b, 0xfa, 0x80, 0x01, 0x47, 0xff, 0x04, 0x1f}, uint16(1))

	f.Fuzz(func(t *testing.T, isa uint8, text []byte, entry uint16) {
		text = text[:min(len(text), 4096)&^3]
		if len(text) == 0 {
			return
		}
		arch, _ := machine.ArchByName(fuzzArchs[int(isa)%len(fuzzArchs)])
		dec := arch.NewDecoder()
		const base = 0x10000
		end := base + uint32(len(text))
		start := base + 4*(uint32(entry)%uint32(len(text)/4))
		g, err := cfg.Build(dec, machine.DecodeText(dec, text), base, base, end, []uint32{start})
		if err != nil {
			return
		}
		for _, b := range g.Blocks {
			if b.Kind != cfg.KindNormal {
				continue
			}
			for i, in := range b.Insts {
				if in.Addr != b.Insts[0].Addr+4*uint32(i) {
					t.Fatalf("block %d is not contiguous at %#x", b.ID, in.Addr)
				}
				if i < len(b.Insts)-1 && in.MI.EndsBlock() {
					t.Fatalf("block %d runs on past %v at %#x", b.ID, in.MI, in.Addr)
				}
			}
			last := b.Last()
			if !last.MI.EndsBlock() || last.MI.Category().IsControl() {
				continue
			}
			for _, e := range b.Succ {
				if e.To.Start() == last.Addr+4 {
					t.Fatalf("block %d's edge enters the word its annul %v at %#x skips", b.ID, last.MI, last.Addr)
				}
			}
		}
		dom := dataflow.Dominators(g)
		dataflow.ComputeLiveness(g)
		dataflow.LoopDepth(g, dataflow.NaturalLoops(g, dom))
	})
}
