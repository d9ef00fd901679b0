package dataflow_test

import (
	"testing"

	"eel/internal/dataflow"
	"eel/internal/machine"
)

// Point-level liveness must agree with the block-level solution at
// every address, and must answer false for addresses outside the
// graph.
func TestPointLiveness(t *testing.T) {
	g, prog := build(t, `
	mov 3, %l0
	subcc %o0, 1, %o1
	be out
	nop
	add %l0, %o1, %o0
out:	retl
	nop
`)
	lv := dataflow.ComputeLiveness(g)
	pl := lv.Points()

	if pl.Len() == 0 {
		t.Fatal("point fold covered no addresses")
	}
	for _, b := range g.Blocks {
		for i, in := range b.Insts {
			got, ok := pl.LiveAfter(in.Addr)
			if !ok {
				t.Fatalf("pc %#x missing from point fold", in.Addr)
			}
			want := lv.LiveAfter(b, i)
			// Duplicated addresses union across occurrences, so the
			// point answer may only grow.
			if !want.Minus(got).IsEmpty() {
				t.Errorf("pc %#x: point live-after %v lost block-level bits %v",
					in.Addr, got, want)
			}
		}
	}

	// subcc's flags feed the be two slots later, so PSR is live right
	// after the subcc; after the be's delay slot the branch has
	// consumed them on both paths and nothing else reads PSR.
	subccPC := prog.Base + 4
	live, ok := pl.LiveAfter(subccPC)
	if !ok || !live.Has(machine.RegPSR) {
		t.Errorf("PSR not live after subcc at %#x (live=%v ok=%v)", subccPC, live, ok)
	}

	if _, ok := pl.LiveAfter(0xdead0000); ok {
		t.Error("out-of-graph pc reported as covered")
	}
}
