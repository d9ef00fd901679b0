package core_test

import (
	"testing"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// addSnippet builds a snippet writing a fixed value to addr (not an
// increment, so ordering tests can distinguish writers).
func storeValueSnippet(t *testing.T, addr uint32, value int32) *core.Snippet {
	t.Helper()
	p1, p2 := machine.Reg(16), machine.Reg(17)
	hi, err := sparc.EncodeSethi(p1, addr)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := sparc.EncodeOp3Imm("or", p2, 0, value)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(addr)))
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSnippet([]uint32{hi, mv, st}, []machine.Reg{p1, p2})
}

func TestMultipleSnippetsPerEdgeOrdered(t *testing.T) {
	// Snippets on one edge run in insertion order: the LAST writer
	// wins at the shared address.
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	for _, b := range g.Blocks {
		if len(b.Succ) <= 1 {
			continue
		}
		for _, edge := range b.Succ {
			if edge.Kind == cfg.EdgeFall {
				if err := r.AddCodeAlong(edge, storeValueSnippet(t, addr, 11)); err != nil {
					t.Fatal(err)
				}
				if err := r.AddCodeAlong(edge, storeValueSnippet(t, addr, 22)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 100000)
	if cpu.ExitCode != 55 {
		t.Fatalf("exit = %d", cpu.ExitCode)
	}
	if got := cpu.Mem.Read32(addr); got != 22 {
		t.Errorf("last snippet did not run last: %d", got)
	}
}

func TestAddCodeBeforeAndAfter(t *testing.T) {
	src := `
main:	mov 5, %o0
	add %o0, 1, %o0
	mov 1, %g1
	ta 0
`
	e, _ := makeExec(t, src, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	before := e.AllocData(4)
	after := e.AllocData(4)
	b := g.ByAddr[0x10000]
	// Before the add: o0 == 5; after: o0 == 6.  Capture o0 into the
	// two cells with custom snippets.
	cap := func(addr uint32) *core.Snippet {
		p1 := machine.Reg(16)
		hi, _ := sparc.EncodeSethi(p1, addr)
		st, _ := sparc.EncodeOp3Imm("st", 8 /*%o0*/, p1, int32(sparc.Lo(addr)))
		return core.NewSnippet([]uint32{hi, st}, []machine.Reg{p1})
	}
	if err := r.AddCodeBefore(b, 1, cap(before)); err != nil {
		t.Fatal(err)
	}
	if err := r.AddCodeAfter(b, 1, cap(after)); err != nil {
		t.Fatal(err)
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1000)
	if cpu.Mem.Read32(before) != 5 || cpu.Mem.Read32(after) != 6 {
		t.Errorf("before=%d after=%d, want 5/6",
			cpu.Mem.Read32(before), cpu.Mem.Read32(after))
	}
}

func TestEditDelaySlotBlock(t *testing.T) {
	// Instrumentation inside a hoisted delay-slot block runs only on
	// the path that executes the slot.
	src := `
main:	clr %o0
	cmp %g0, 1
	bne,a done
	add %o0, 5, %o0
	add %o0, 100, %o0
done:	mov 1, %g1
	ta 0
`
	e, _ := makeExec(t, src, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	found := false
	for _, b := range g.Blocks {
		if b.Kind == cfg.KindDelaySlot && !b.Uneditable {
			if err := r.AddCodeBefore(b, 0, storeValueSnippet(t, addr, 77)); err != nil {
				t.Fatal(err)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no editable delay-slot block")
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1000)
	// Branch taken: the slot executes, so the marker is written and
	// o0 == 5.
	if cpu.ExitCode != 5 {
		t.Fatalf("exit = %d", cpu.ExitCode)
	}
	if cpu.Mem.Read32(addr) != 77 {
		t.Errorf("delay-slot instrumentation missed: %d", cpu.Mem.Read32(addr))
	}
}

func TestForbiddenRegistersRespected(t *testing.T) {
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	snip := counterSnippet(t, addr)
	// Forbid everything except two registers: the allocator must
	// pick exactly those.
	var forbid machine.RegSet
	for reg := machine.Reg(1); reg < 32; reg++ {
		if reg != 20 && reg != 21 {
			forbid = forbid.Add(reg)
		}
	}
	snip.Forbid = forbid
	snip.Callback = func(words []uint32, a uint32, assign map[machine.Reg]machine.Reg) {
		for _, got := range assign {
			if got != 20 && got != 21 {
				t.Errorf("allocator chose forbidden register %d", got)
			}
		}
	}
	for _, b := range g.Blocks {
		if len(b.Succ) > 1 {
			for _, edge := range b.Succ {
				if !edge.Uneditable {
					if err := r.AddCodeAlong(edge, snip); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if _, err := e.BuildEdited(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedLoopInstrumentation(t *testing.T) {
	src := `
main:	clr %o0
	mov 3, %l0
outer:	mov 4, %l1
inner:	add %o0, 1, %o0
	subcc %l1, 1, %l1
	bne inner
	nop
	subcc %l0, 1, %l0
	bne outer
	nop
	mov 1, %g1
	ta 0
`
	e, _ := makeExec(t, src, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint32
	for _, b := range g.Blocks {
		if len(b.Succ) <= 1 || b.Kind != cfg.KindNormal {
			continue
		}
		for _, edge := range b.Succ {
			if edge.Uneditable {
				continue
			}
			a := e.AllocData(4)
			addrs = append(addrs, a)
			if err := r.AddCodeAlong(edge, counterSnippet(t, a)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 100000)
	if cpu.ExitCode != 12 {
		t.Fatalf("exit = %d, want 12", cpu.ExitCode)
	}
	var total uint64
	for _, a := range addrs {
		total += uint64(cpu.Mem.Read32(a))
	}
	// inner bne: 9 taken + 3 fall; outer bne: 2 taken + 1 fall = 15.
	if total != 15 {
		t.Errorf("edge events = %d, want 15", total)
	}
}

func TestProduceEditedRoutineIdempotentAfterDelete(t *testing.T) {
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	if err := r.ProduceEditedRoutine(); err != nil {
		t.Fatal(err)
	}
	// DeleteControlFlowGraph then re-produce (the paper's memory
	// reclamation pattern).
	r.DeleteControlFlowGraph()
	if err := r.ProduceEditedRoutine(); err != nil {
		t.Fatal(err)
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 100000)
	if cpu.ExitCode != 55 {
		t.Errorf("exit = %d", cpu.ExitCode)
	}
}

func TestPickPlaceholders(t *testing.T) {
	w, _ := sparc.EncodeOp3("add", 16, 17, 18) // uses l0,l1,l2
	dec := sparc.NewDecoder()
	abi, inst := machine.ABIOf(dec), dec.Decode(w)
	phs, err := core.PickPlaceholders(abi, inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[machine.Reg]bool{}
	for _, p := range phs {
		if p == 16 || p == 17 || p == 18 {
			t.Errorf("placeholder %d collides with the instruction's registers", p)
		}
		if seen[p] {
			t.Errorf("duplicate placeholder %d", p)
		}
		seen[p] = true
	}
	if _, err := core.PickPlaceholders(abi, inst, 30); err == nil {
		t.Error("impossible request satisfied")
	}
}

func TestStatsAccumulation(t *testing.T) {
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range g.Blocks {
		if len(b.Succ) > 1 {
			for _, edge := range b.Succ {
				if !edge.Uneditable {
					if err := r.AddCodeAlong(edge, counterSnippet(t, e.AllocData(4))); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
		}
	}
	if _, err := e.BuildEdited(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Sites != n {
		t.Errorf("stats sites = %d, want %d", e.Stats.Sites, n)
	}
	if e.Stats.Scavenged+e.Stats.Spilled != n {
		t.Errorf("scavenged+spilled = %d", e.Stats.Scavenged+e.Stats.Spilled)
	}
}

var _ = sim.NewMemory // keep the import when helpers change
