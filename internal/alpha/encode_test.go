package alpha

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
		{"bis $31,$31,$31", 0x47ff041f, func() (uint32, error) { return EncodeOp("bis", 31, 31, 31) }},
		{"lda $1,8($2)", 0x20220008, func() (uint32, error) { return EncodeMem("lda", 1, 2, 8) }},
		{"br $31,+0", 0xc3e00000, func() (uint32, error) { return EncodeBranch("br", 31, 0) }},
		{"retj $31,($26)", 0x6bfa8000, func() (uint32, error) { return EncodeJump("retj", 31, 26) }},
		{"call_pal 0x83", 0x00000083, func() (uint32, error) { return EncodeCallPal(0x83) }},
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

// TestMisencodingsRejected pins operands written over a field the
// instruction reads, which the hand-written encoders once accepted:
// each of these words decoded to a different displacement or PAL code.
func TestMisencodingsRejected(t *testing.T) {
	if w, err := EncodeMem("br", 1, 2, 5); err == nil {
		t.Errorf("br with a base register encoded to %08x", w)
	}
	if w, err := EncodeOp("call_pal", 1, 2, 3); err == nil {
		t.Errorf("call_pal with operate registers encoded to %08x", w)
	}
	if w, err := EncodeBranch("lda", 1, 5); err == nil {
		t.Errorf("lda with a branch displacement encoded to %08x", w)
	}
}
