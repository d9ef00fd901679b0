package sparc

import (
	"encoding/binary"
	"testing"

	"eel/internal/spawn"
)

// FuzzDecode decodes arbitrary words through the table decoder.  For
// any input the decoder must not panic; for words that decode it
// checks internal consistency: the instruction's fields re-insert
// into the definition's match bits to reproduce a word that decodes
// identically, and the semantics compile.
func FuzzDecode(f *testing.F) {
	seed := []uint32{
		0x01000000,             // nop
		0x9de3bfa0,             // save %sp, -96, %sp
		0x81c7e008, 0x81e80000, // ret; restore
		0x81c3e008,                         // retl
		0x40000000,                         // call .
		0x30800000, 0x12bfffff, 0x02800001, // ba,a / bne,a -1 / be +1
		0x91d02000,             // ta 0
		0x90022001, 0xd0022000, // add %o0,1,%o0 / ld [%o0],%o0
		0x00000000, 0xffffffff, 0xdeadbeef,
	}
	for _, w := range seed {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], w)
		f.Add(b[:])
	}
	dec := NewDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off+4 <= len(data); off += 4 {
			w := binary.BigEndian.Uint32(data[off:])
			inst := dec.Decode(w)
			if !inst.Valid() {
				continue
			}
			if inst.Word() != w {
				t.Fatalf("%08x: Word() = %08x", w, inst.Word())
			}
			sem, ok := inst.Sem().(*spawn.InstSem)
			if !ok {
				t.Fatalf("%08x (%s): no spawn semantics", w, inst.Name())
			}
			// Re-insert the decoded fields over the match bits: the
			// normalized word must decode to the same instruction
			// with the same fields (encode/decode agreement on every
			// operand bit).
			w2 := sem.Def.Match
			for _, fld := range inst.Fields() {
				df, ok := sem.Desc.Field(fld.Name)
				if !ok {
					t.Fatalf("%08x (%s): unknown field %s", w, inst.Name(), fld.Name)
				}
				w2 = df.Insert(w2, fld.Val)
			}
			inst2 := dec.Decode(w2)
			if !inst2.Valid() || inst2.Name() != inst.Name() {
				t.Fatalf("%08x (%s): normalized %08x decodes to %q",
					w, inst.Name(), w2, inst2.Name())
			}
			fa, fb := inst.Fields(), inst2.Fields()
			if len(fa) != len(fb) {
				t.Fatalf("%08x (%s): field count changed", w, inst.Name())
			}
			for i := range fa {
				if fa[i] != fb[i] {
					t.Fatalf("%08x (%s): field %s changed %#x -> %#x",
						w, inst.Name(), fa[i].Name, fa[i].Val, fb[i].Val)
				}
			}
			// Semantics must compile (or fail cleanly) — never panic.
			if _, err := sem.Compiled(); err != nil {
				// Acceptable: some decodable words have semantics the
				// compiler rejects; the emulator treats them as
				// illegal.  The property under test is "no panic".
				continue
			}
			// StaticTarget and the disassembler must not panic either.
			inst.StaticTarget(0x10000)
			_ = Disasm(inst, 0x10000)
		}
	})
}

// TestGoldenEncodings pins known-good SPARC V8 encodings so an
// encoder and decoder that err in the same direction cannot agree
// their way past the round-trip oracle.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		name string
		want uint32
		got  func() (uint32, error)
	}{
		{"nop", 0x01000000, func() (uint32, error) { return Nop(), nil }},
		{"add %o0,1,%o0", 0x90022001, func() (uint32, error) { return EncodeOp3Imm("add", RegO0, RegO0, 1) }},
		{"save %sp,-96,%sp", 0x9de3bfa0, func() (uint32, error) { return EncodeOp3Imm("save", RegSP, RegSP, -96) }},
		{"retl", 0x81c3e008, func() (uint32, error) { return EncodeOp3Imm("jmpl", RegG0, RegO7, 8) }},
		{"ret", 0x81c7e008, func() (uint32, error) { return EncodeOp3Imm("jmpl", RegG0, RegI7, 8) }},
		{"call +0", 0x40000000, func() (uint32, error) { return EncodeCall(0) }},
		{"ba +16w", 0x10800010, func() (uint32, error) { return EncodeBranch("ba", false, 16) }},
		{"bne,a -1w", 0x32bfffff, func() (uint32, error) { return EncodeBranch("bne", true, -1) }},
		{"sethi %hi(0x10000),%g1", 0x03000040, func() (uint32, error) { return EncodeSethi(RegG1, 0x10000) }},
		{"ta 0", 0x91d02000, func() (uint32, error) { return EncodeTa(0) }},
		{"ld [%o0],%o0", 0xd0022000, func() (uint32, error) { return EncodeOp3Imm("ld", RegO0, RegO0, 0) }},
		{"st %o0,[%o1]", 0xd0226000, func() (uint32, error) { return EncodeOp3Imm("st", RegO0, RegO1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.got()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("encoded %08x, want %08x", got, tc.want)
			}
		})
	}
}
