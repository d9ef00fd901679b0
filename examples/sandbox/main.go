// The sandbox example implements software fault isolation (paper §1,
// citing Wahbe et al.): every store instruction is replaced by a
// sequence that masks the effective address into a designated data
// segment, so a corrupted pointer cannot overwrite memory outside
// its domain.  The example runs a program with a wild store twice:
// unsandboxed (the stray write lands in the stack area) and
// sandboxed (the write is confined to the segment).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eel"
	"eel/internal/asm"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/toolmain"
)

// Segment geometry: stores are confined to [SegBase, SegBase+SegSize).
const (
	segBase = 0x400000
	segSize = 0x100000
)

// program performs one legitimate store and one store through a
// corrupted pointer aimed at the stack red zone (0x7fe000).
const program = `
main:	set 0x400010, %l0
	mov 42, %l1
	st %l1, [%l0]        ! legitimate store
	set 0x7fe000, %l2    ! corrupted pointer
	mov 666, %l3
	st %l3, [%l2]        ! wild store
	ld [%l0], %o0        ! prove the good data survived
	mov 1, %g1
	ta 0
`

func main() {
	eng := toolmain.AddEngine(flag.CommandLine)
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	check(err)
	defer stop()

	prog, err := asm.Assemble(program, 0x10000)
	check(err)
	img := &eel.File{
		Format: "aout",
		Entry:  0x10000,
		Sections: []eel.Section{
			{Name: "text", Addr: 0x10000, Data: prog.Bytes},
			{Name: "data", Addr: segBase, Data: make([]byte, 4096)},
		},
		Symbols: []eel.Symbol{{Name: "main", Addr: 0x10000, Global: true}},
	}

	// Unsandboxed run: the wild store lands at 0x7fe000.
	orig := sim.LoadFile(img, os.Stdout)
	orig.Engine = *eng
	check(orig.Run(10000))
	fmt.Printf("unsandboxed: [0x7fe000] = %d (corrupted), exit %d\n",
		orig.Mem.Read32(0x7fe000), orig.ExitCode)

	// Sandbox every store.  The concurrent pipeline analyzes all
	// routines (this tiny image has one; real programs fan out).
	exec, err := eel.Load(img)
	check(err)
	res, err := eel.AnalyzeAll(exec, eel.AnalysisOptions{})
	check(err)
	sites := 0
	for _, a := range res.Analyses {
		check(a.Err)
		r := a.Routine
		for _, b := range a.Graph.Blocks {
			if b.Uneditable {
				continue
			}
			for i, in := range b.Insts {
				if !in.MI.WritesMem() {
					continue
				}
				snip, err := sandboxStore(a.Graph.ABI(), in.MI)
				check(err)
				check(r.AddCodeBefore(b, i, snip))
				check(r.DeleteInst(b, i))
				sites++
			}
		}
		check(r.ProduceEditedRoutine())
	}
	edited, err := exec.BuildEdited()
	check(err)

	boxed := sim.LoadFile(edited, os.Stdout)
	boxed.Engine = *eng
	start := time.Now()
	check(boxed.Run(10000))
	rate := float64(boxed.InstCount) / time.Since(start).Seconds()
	fmt.Printf("sandboxed run: %d instructions at %.0f insts/sec\n", boxed.InstCount, rate)
	if of.Stats {
		toolmain.WriteEngineStats(os.Stdout, "unsandboxed", orig.Counters())
		toolmain.WriteEngineStats(os.Stdout, "sandboxed", boxed.Counters())
	}
	confined := segBase + (0x7fe000 & (segSize - 1) &^ 3)
	fmt.Printf("sandboxed (%d stores rewritten): [0x7fe000] = %d, confined write at %#x = %d, exit %d\n",
		sites, boxed.Mem.Read32(0x7fe000), confined, boxed.Mem.Read32(uint32(confined)), boxed.ExitCode)
	if boxed.Mem.Read32(0x7fe000) != 0 {
		fmt.Println("SANDBOX FAILED: wild store escaped")
		os.Exit(1)
	}
}

// sandboxStore replaces a store with: compute the effective address,
// mask it into the segment, and perform the same-width store there.
// The original store instruction itself is deleted by the caller.
func sandboxStore(abi *machine.ABI, inst *machine.Inst) (*eel.Snippet, error) {
	phs, err := core.PickPlaceholders(abi, inst, 2)
	if err != nil {
		return nil, err
	}
	p1, p2 := phs[0], phs[1]
	a, ok := inst.Addr()
	if !ok || !a.HasData {
		return nil, fmt.Errorf("sandbox: %s stores no register to an address operand", inst)
	}
	align := uint32(inst.MemWidth() - 1)
	if inst.MemWidth() == 8 {
		align = 7
	}
	offMask := uint32(segSize-1) &^ align

	var words []uint32
	emit := func(w uint32, err error) error {
		if err != nil {
			return err
		}
		words = append(words, w)
		return nil
	}
	// Effective address.
	if err := emit(sparc.EncodeAddr("add", p1, a)); err != nil {
		return nil, err
	}
	// Mask into the segment.
	for _, step := range [][2]uint32{{offMask, 0}, {segBase, 1}} {
		if err := emit(sparc.EncodeSethi(p2, step[0])); err != nil {
			return nil, err
		}
		if err := emit(sparc.EncodeOp3Imm("or", p2, p2, int32(sparc.Lo(step[0])))); err != nil {
			return nil, err
		}
		op := "and"
		if step[1] == 1 {
			op = "or"
		}
		if err := emit(sparc.EncodeOp3(op, p1, p1, p2)); err != nil {
			return nil, err
		}
	}
	// The same-width store to the confined address.
	if err := emit(sparc.EncodeAddr(inst.Name(), a.Data, machine.Addr{Base: p1})); err != nil {
		return nil, err
	}
	return eel.NewSnippet(words, []machine.Reg{p1, p2}), nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sandbox:", err)
		os.Exit(1)
	}
}
