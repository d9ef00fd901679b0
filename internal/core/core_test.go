package core_test

import (
	"bytes"
	"fmt"
	"testing"

	_ "eel/internal/aout" // register the a.out container format
	"eel/internal/asm"
	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// makeExec assembles src at base and wraps it as an executable whose
// routines are the given labels (in address order; extents run to the
// next label or the image end).
func makeExec(t *testing.T, src string, base uint32, routines ...string) (*core.Executable, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src, base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	f := &binfile.File{
		Format: "aout",
		Entry:  base,
		Sections: []binfile.Section{
			{Name: "text", Addr: base, Data: prog.Bytes},
		},
	}
	for _, name := range routines {
		addr, ok := prog.Labels[name]
		if !ok {
			t.Fatalf("no label %q", name)
		}
		f.Symbols = append(f.Symbols, binfile.Symbol{Name: name, Addr: addr, Kind: binfile.SymFunc, Global: true})
	}
	if len(routines) == 0 {
		f.Symbols = append(f.Symbols, binfile.Symbol{Name: "main", Addr: base, Kind: binfile.SymFunc, Global: true})
	}
	e, err := core.NewExecutable(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	return e, prog
}

// runImage executes an image in the emulator.
func runImage(t *testing.T, f *binfile.File, maxSteps uint64) (*sim.CPU, string) {
	t.Helper()
	mem := sim.NewMemory()
	for _, s := range f.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	cpu := sim.New(sparc.NewDecoder(), mem)
	var out bytes.Buffer
	cpu.Stdout = &out
	text := f.Text()
	cpu.TextStart, cpu.TextEnd = text.Addr, text.End()
	cpu.Reset(f.Entry, 0x7ff000)
	if err := cpu.Run(maxSteps); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("program did not halt")
	}
	return cpu, out.String()
}

// counterSnippet builds the Figure 2/5 increment snippet for a
// counter at addr, with %l0/%l1 as placeholder registers.
func counterSnippet(t *testing.T, addr uint32) *core.Snippet {
	t.Helper()
	p1, p2 := machine.Reg(16), machine.Reg(17) // %l0 %l1 placeholders
	hi, err := sparc.EncodeSethi(p1, addr)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := sparc.EncodeOp3Imm("ld", p2, p1, int32(sparc.Lo(addr)))
	if err != nil {
		t.Fatal(err)
	}
	add, err := sparc.EncodeOp3Imm("add", p2, p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(addr)))
	if err != nil {
		t.Fatal(err)
	}
	return core.NewSnippet([]uint32{hi, ld, add, st}, []machine.Reg{p1, p2})
}

const loopProgram = `
main:	mov 10, %l0
	clr %o0
loop:	add %o0, %l0, %o0
	subcc %l0, 1, %l0
	bne loop
	nop
	mov 1, %g1
	ta 0
`

func TestIdentityRelayout(t *testing.T) {
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 55 {
		t.Errorf("edited exit = %d, want 55", cpu.ExitCode)
	}
	// Edited entry is inside the new text, not the old.
	if f.Entry == 0x10000 {
		t.Error("entry not relocated")
	}
	if ea, ok := e.EditedAddr(0x10000); !ok || ea != f.Entry {
		t.Errorf("EditedAddr(main) = %#x ok=%v", ea, ok)
	}
}

func TestBranchCountingEndToEnd(t *testing.T) {
	// Figure 1's tool: a counter on each out-edge of every block
	// with more than one successor.
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	type ctr struct {
		addr uint32
	}
	var counters []ctr
	for _, b := range g.Blocks {
		if len(b.Succ) <= 1 {
			continue
		}
		for _, edge := range b.Succ {
			addr := e.AllocData(4)
			if err := r.AddCodeAlong(edge, counterSnippet(t, addr)); err != nil {
				t.Fatalf("AddCodeAlong: %v", err)
			}
			counters = append(counters, ctr{addr})
		}
	}
	if len(counters) != 2 {
		t.Fatalf("instrumented %d edges, want 2 (taken+fall of bne)", len(counters))
	}
	if err := r.ProduceEditedRoutine(); err != nil {
		t.Fatal(err)
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 55 {
		t.Fatalf("edited exit = %d, want 55", cpu.ExitCode)
	}
	// The loop iterates 10 times: bne taken 9, untaken 1.
	mem := sim.NewMemory()
	for _, s := range f.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	// Re-run to inspect memory (runImage discards it).
	cpu2 := sim.New(sparc.NewDecoder(), mem)
	text := f.Text()
	cpu2.TextStart, cpu2.TextEnd = text.Addr, text.End()
	cpu2.Reset(f.Entry, 0x7ff000)
	if err := cpu2.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	got := []uint32{cpu2.Mem.Read32(counters[0].addr), cpu2.Mem.Read32(counters[1].addr)}
	// One edge saw 9, the other 1 (order depends on edge order).
	if !(got[0] == 9 && got[1] == 1 || got[0] == 1 && got[1] == 9) {
		t.Errorf("edge counts = %v, want {9,1}", got)
	}
}

func TestCallProgramSurvivesEditing(t *testing.T) {
	src := `
main:	mov 7, %o0
	call double
	nop
	call double
	nop
	mov 1, %g1
	ta 0
double:	retl
	add %o0, %o0, %o0
`
	e, _ := makeExec(t, src, 0x10000, "main", "double")
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 28 {
		t.Errorf("exit = %d, want 28", cpu.ExitCode)
	}
}

func TestInstrumentAfterCallReturn(t *testing.T) {
	src := `
main:	mov 7, %o0
	call double
	nop
	mov 1, %g1
	ta 0
double:	retl
	add %o0, %o0, %o0
`
	e, _ := makeExec(t, src, 0x10000, "main", "double")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	edited := false
	for _, b := range g.Blocks {
		if b.Kind != 4 { // KindCallSurrogate
			continue
		}
		if err := r.AddCodeAlong(b.Succ[0], counterSnippet(t, addr)); err != nil {
			t.Fatalf("edit return edge: %v", err)
		}
		edited = true
	}
	if !edited {
		t.Fatal("no call surrogate found")
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	for _, s := range f.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	cpu := sim.New(sparc.NewDecoder(), mem)
	text := f.Text()
	cpu.TextStart, cpu.TextEnd = text.Addr, text.End()
	cpu.Reset(f.Entry, 0x7ff000)
	if err := cpu.Run(100000); err != nil {
		t.Fatal(err)
	}
	if cpu.ExitCode != 14 {
		t.Errorf("exit = %d, want 14", cpu.ExitCode)
	}
	if n := cpu.Mem.Read32(addr); n != 1 {
		t.Errorf("return-edge counter = %d, want 1", n)
	}
}

const switchProgram = `
main:	mov 2, %o0
	cmp %o0, 3
	bgu default
	sll %o0, 2, %l1
	set table, %l2
	ld [%l2+%l1], %l3
	jmp %l3
	nop
case0:	mov 10, %o0
	ba done
	nop
case1:	mov 20, %o0
	ba done
	nop
case2:	mov 30, %o0
	ba done
	nop
case3:	mov 40, %o0
	ba done
	nop
default: mov 99, %o0
done:	mov 1, %g1
	ta 0
	.align 4
table:	.word case0
	.word case1
	.word case2
	.word case3
`

func TestDispatchTableProgramSurvivesEditing(t *testing.T) {
	e, _ := makeExec(t, switchProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Complete {
		t.Fatal("dispatch table not resolved")
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 30 {
		t.Errorf("exit = %d, want 30 (case 2)", cpu.ExitCode)
	}
}

func TestDispatchEdgeInstrumentation(t *testing.T) {
	e, prog := makeExec(t, switchProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	// Count entries into case2 via the dispatch edge.
	addr := e.AllocData(4)
	found := false
	for _, ij := range g.IndirectJumps {
		if ij.Slot == nil {
			continue
		}
		for _, edge := range ij.Slot.Succ {
			if edge.To.Start() == prog.Labels["case2"] {
				if err := r.AddCodeAlong(edge, counterSnippet(t, addr)); err != nil {
					t.Fatal(err)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("case2 dispatch edge not found")
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory()
	for _, s := range f.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	cpu := sim.New(sparc.NewDecoder(), mem)
	text := f.Text()
	cpu.TextStart, cpu.TextEnd = text.Addr, text.End()
	cpu.Reset(f.Entry, 0x7ff000)
	if err := cpu.Run(100000); err != nil {
		t.Fatal(err)
	}
	if cpu.ExitCode != 30 {
		t.Fatalf("exit = %d, want 30", cpu.ExitCode)
	}
	if n := cpu.Mem.Read32(addr); n != 1 {
		t.Errorf("case2 edge counter = %d, want 1", n)
	}
}

func TestRuntimeTranslationFallback(t *testing.T) {
	// A jump through a caller-provided register is unanalyzable:
	// the edited program must still work via the translation table.
	src := `
main:	set helper, %g1
	call trampoline
	nop
	mov 1, %g1
	ta 0
trampoline: jmp %g1
	nop
helper:	mov 77, %o0
	retl
	nop
`
	e, _ := makeExec(t, src, 0x10000, "main", "trampoline", "helper")
	r := e.RoutineByName("trampoline")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Complete {
		t.Fatal("caller-provided jump should be unresolvable")
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	// helper returns to trampoline's caller via %o7 set by the
	// original call in main... the jmp does not relink, so helper's
	// retl returns to main's call+8. Exit code must be 77.
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 77 {
		t.Errorf("exit = %d, want 77", cpu.ExitCode)
	}
	// A translation table must have been emitted.
	if f.Section("ttable") == nil {
		t.Error("no translation table emitted")
	}
}

func TestIndirectCallThroughRegister(t *testing.T) {
	src := `
main:	set helper, %l0
	call %l0
	nop
	mov 1, %g1
	ta 0
helper:	mov 42, %o0
	retl
	nop
`
	e, _ := makeExec(t, src, 0x10000, "main", "helper")
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", cpu.ExitCode)
	}
}

func TestDeleteInstruction(t *testing.T) {
	src := `
main:	mov 5, %o0
	add %o0, 90, %o0
	mov 1, %g1
	ta 0
`
	e, _ := makeExec(t, src, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	b := g.ByAddr[0x10000]
	if err := r.DeleteInst(b, 1); err != nil { // delete the add
		t.Fatal(err)
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1000)
	if cpu.ExitCode != 5 {
		t.Errorf("exit = %d, want 5 (add deleted)", cpu.ExitCode)
	}
}

func TestAnnulledBranchSurvivesEditing(t *testing.T) {
	src := `
main:	clr %o0
	cmp %g0, 1
	be,a away
	add %o0, 5, %o0
	add %o0, 1, %o0
	mov 1, %g1
	ta 0
away:	mov 99, %o0
	mov 1, %g1
	ta 0
`
	e, _ := makeExec(t, src, 0x10000, "main")
	// Add instrumentation somewhere to force the edited lowering.
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	for _, b := range g.Blocks {
		if b.Start() == 0x10000 {
			for _, edge := range b.Succ {
				if edge.Uneditable {
					continue
				}
				if err := r.AddCodeAlong(edge, counterSnippet(t, addr)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1000)
	if cpu.ExitCode != 1 {
		t.Errorf("exit = %d, want 1 (annulled slot must not run)", cpu.ExitCode)
	}
}

func TestSpillWhenNoDeadRegisters(t *testing.T) {
	// Force spilling by disabling scavenging (the ablation switch).
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	e.Scavenge = false
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	for _, b := range g.Blocks {
		if len(b.Succ) > 1 {
			for _, edge := range b.Succ {
				if err := r.AddCodeAlong(edge, counterSnippet(t, addr)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 55 {
		t.Errorf("exit = %d, want 55", cpu.ExitCode)
	}
	if e.Stats.Spilled == 0 {
		t.Error("expected spilled snippet sites with scavenging disabled")
	}
}

func TestStrippedExecutableRecovery(t *testing.T) {
	src := `
main:	call f
	nop
	mov 1, %g1
	ta 0
f:	mov 9, %o0
	retl
	nop
`
	prog := asm.MustAssemble(src, 0x10000)
	f := &binfile.File{
		Format: "aout",
		Entry:  0x10000,
		Sections: []binfile.Section{
			{Name: "text", Addr: 0x10000, Data: prog.Bytes},
		},
		// No symbols: stripped.
	}
	e, err := core.NewExecutable(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	// The call target must have been recovered as a routine.
	if e.RoutineAt(prog.Labels["f"]) == nil ||
		e.RoutineAt(prog.Labels["f"]).Start != prog.Labels["f"] {
		t.Fatal("stripped recovery missed the call target")
	}
	out, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, out, 1000)
	if cpu.ExitCode != 9 {
		t.Errorf("exit = %d, want 9", cpu.ExitCode)
	}
}

// TestPredecodedText checks the text ReadContents decodes once: InstAt
// serves each text word's instruction and nothing off a word or
// outside the text, and a text section that is not word aligned is
// refused rather than decoded across word boundaries.
func TestPredecodedText(t *testing.T) {
	e, prog := makeExec(t, "main:\tmov 1, %g1\n\tta 0\n", 0x10000, "main")
	for i := uint32(0); i < 2; i++ {
		w, _ := e.ReadWord(0x10000 + 4*i)
		if mi, ok := e.InstAt(0x10000 + 4*i); !ok || mi.Word() != w {
			t.Errorf("InstAt(%#x) = %v, %v; want word %#x", 0x10000+4*i, mi, ok, w)
		}
	}
	for _, a := range []uint32{0x10002, 0x10008, 0xfffc, 0} {
		if _, ok := e.InstAt(a); ok {
			t.Errorf("InstAt(%#x) found an instruction", a)
		}
	}
	f := &binfile.File{Format: "aout", Entry: 0x10002,
		Sections: []binfile.Section{{Name: "text", Addr: 0x10002, Data: prog.Bytes}}}
	e, err := core.NewExecutable(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err == nil {
		t.Error("ReadContents accepted a text section at 0x10002")
	}
}

func TestUneditableEdgeRejected(t *testing.T) {
	src := `
main:	call f
	nop
	mov 1, %g1
	ta 0
f:	retl
	nop
`
	e, _ := makeExec(t, src, 0x10000, "main", "f")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	for _, edge := range g.Edges {
		if edge.Uneditable {
			if err := r.AddCodeAlong(edge, counterSnippet(t, e.AllocData(4))); err != nil {
				rejected = true
			}
		}
	}
	if !rejected {
		t.Error("uneditable edge accepted an edit")
	}
}

func TestWriteAndReadEditedFile(t *testing.T) {
	e, _ := makeExec(t, loopProgram, 0x10000, "main")
	path := t.TempDir() + "/edited.aout"
	if err := e.WriteEditedExecutable(path); err != nil {
		t.Fatal(err)
	}
	f, err := binfile.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := runImage(t, f, 1_000_000)
	if cpu.ExitCode != 55 {
		t.Errorf("exit = %d, want 55", cpu.ExitCode)
	}
	// Symbols regenerated at edited addresses.
	foundMain := false
	for _, s := range f.Symbols {
		if s.Name == "main" && s.Addr == f.Entry {
			foundMain = true
		}
	}
	if !foundMain {
		t.Error("edited symbol table lacks relocated main")
	}
}

// TestWavesPassEachRoutineOnce checks the library's routine walk: a
// hidden routine that analysis splits off in wave 1 (§3.1 stage 4)
// arrives in wave 2, every routine is passed exactly once, and a
// later walk passes the whole list again in one wave.
func TestWavesPassEachRoutineOnce(t *testing.T) {
	src := `
main:	call f
	nop
	mov 1, %g1
	ta 0
f:	retl
	nop
	mov 7, %o0
	retl
	nop
g:	retl
	nop
`
	e, _ := makeExec(t, src, 0x10000, "main", "f", "g")
	walk := func() [][]string {
		var waves [][]string
		passed := map[*core.Routine]bool{}
		err := e.Waves(func(rs []*core.Routine) error {
			var names []string
			for _, r := range rs {
				if passed[r] {
					t.Errorf("%s passed twice", r.Name)
				}
				passed[r] = true
				names = append(names, r.Name)
				if _, err := r.ControlFlowGraph(); err != nil {
					return err
				}
			}
			waves = append(waves, names)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(passed) != len(e.Routines()) {
			t.Errorf("passed %d of %d routines", len(passed), len(e.Routines()))
		}
		return waves
	}
	if got, want := fmt.Sprint(walk()), "[[main f g] [hidden_00010018]]"; got != want {
		t.Errorf("first walk's waves = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(walk()), "[[main f hidden_00010018 g]]"; got != want {
		t.Errorf("second walk's waves = %s, want %s", got, want)
	}
}

// bnAnnulProgram's bn,a never transfers and annuls the add after it,
// so the program exits 5.
const bnAnnulProgram = `
main:	mov 5, %o0
	bn,a next
	add %o0, 100, %o0
next:	mov 1, %g1
	ta 0
`

// TestAnnulledSuccessorIsNoPath pins SPARC's bn,a, which annuls its
// successor without transferring: with a counter before every
// editable instruction the skipped add stays annulled and the program
// still exits 5, and no code goes after the bn,a nor may it be deleted.
func TestAnnulledSuccessorIsNoPath(t *testing.T) {
	e, prog := makeExec(t, bnAnnulProgram, 0x10000, "main")
	r := e.RoutineByName("main")
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	addr := e.AllocData(4)
	for _, b := range g.Blocks {
		for i := 0; i < len(b.Insts) && !b.Uneditable; i++ {
			if err := r.AddCodeBefore(b, i, counterSnippet(t, addr)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := runImage(t, &binfile.File{Format: "aout", Entry: prog.Base,
		Sections: []binfile.Section{{Name: "text", Addr: prog.Base, Data: prog.Bytes}}}, 1000)
	cpu, _ := runImage(t, f, 1000)
	if orig.ExitCode != 5 || cpu.ExitCode != orig.ExitCode {
		t.Errorf("edited exits %d, original %d, want 5", cpu.ExitCode, orig.ExitCode)
	}
	b := g.ByAddr[prog.Base] // mov, bn,a
	if err := r.AddCodeAfter(b, 1, counterSnippet(t, addr)); err == nil {
		t.Error("AddCodeAfter on bn,a accepted")
	}
	if err := r.DeleteInst(b, 1); err == nil {
		t.Error("DeleteInst on bn,a accepted")
	}
}

// TestAnnulledSuccessorLiveness: a skipped word that writes a register
// without reading it does not kill that register before the bn,a.
func TestAnnulledSuccessorLiveness(t *testing.T) {
	e, prog := makeExec(t, `
main:	mov 5, %o0
	bn,a next
	mov 7, %o0
next:	add %o0, 1, %o0
	mov 1, %g1
	ta 0
`, 0x10000, "main")
	g, err := e.RoutineByName("main").ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	lv := dataflow.ComputeLiveness(g)
	if !lv.LiveBefore(g.ByAddr[prog.Base], 1).Has(sparc.RegO0) { // mov, bn,a
		t.Error("o0 dead before the bn,a: the skipped mov was taken to run")
	}
}
