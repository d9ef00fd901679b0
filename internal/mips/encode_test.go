package mips

import (
	"testing"

	"eel/internal/spawn"
)

// TestEncodeDecodeBoundarySweep runs spawn's derived sweep over the
// description: every readable field at its extremes, out-of-range
// values and register 32 rejected, and every branch displacement
// checked against its static target.
func TestEncodeDecodeBoundarySweep(t *testing.T) {
	for _, err := range spawn.CheckEncoding(NewDecoder()) {
		t.Error(err)
	}
}

// TestGoldenEncodings pins words to the architecture manual: encoder
// and decoder derive from one description, so an error the two share
// would pass every round trip.
func TestGoldenEncodings(t *testing.T) {
	cases := []struct {
		name string
		want uint32
		got  func() (uint32, error)
	}{
		{"addiu $2,$0,1", 0x24020001, func() (uint32, error) { return EncodeI("addiu", 2, 0, 1) }},
		{"jr $31", 0x03e00008, func() (uint32, error) { return EncodeR("jr", 0, 31, 0) }},
		{"beq $4,$5,+3", 0x10850003, func() (uint32, error) { return EncodeBranch("beq", 4, 5, 3) }},
		{"lui $1,0x40", 0x3c010040, func() (uint32, error) { return EncodeIU("lui", 1, 0, 0x40) }},
		{"sw $31,8($29)", 0xafbf0008, func() (uint32, error) { return EncodeI("sw", 31, 29, 8) }},
		{"syscall", 0x0000000c, EncodeSyscall},
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

// TestMisencodingsRejected pins immediates of the wrong signedness,
// which the hand-written encoders once truncated into valid words of
// another value.  blez and bgtz keep accepting an rt: the description
// leaves it free.
func TestMisencodingsRejected(t *testing.T) {
	if w, err := EncodeI("andi", 2, 3, -1); err == nil {
		t.Errorf("andi $2, $3, -1 encoded to %08x (andi 0xffff)", w)
	}
	if w, err := EncodeIU("addiu", 2, 3, 0xffff); err == nil {
		t.Errorf("addiu $2, $3, 0xffff encoded to %08x (addiu -1)", w)
	}
	for _, name := range []string{"blez", "bgtz"} {
		if _, err := EncodeBranch(name, 4, 5, 1); err != nil {
			t.Errorf("%s with rt $5: %v", name, err)
		}
	}
}
