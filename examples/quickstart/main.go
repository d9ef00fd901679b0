// The quickstart example is the paper's Figure 1 tool, end to end:
// open an executable, put a counter on every out-edge of every block
// with more than one successor, write the edited executable, run
// both versions on the bundled SPARC emulator, and show that the
// edited program behaves identically while the counters record every
// branch decision.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eel"
	"eel/internal/asm"
	"eel/internal/obs"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/toolmain"
)

// program sums the integers 1..10 with a loop and reports whether
// the result is even — two branch sites to profile.
const program = `
main:	mov 10, %l0
	clr %o0
loop:	add %o0, %l0, %o0
	subcc %l0, 1, %l0
	bne loop
	nop
	and %o0, 1, %l1
	cmp %l1, 0
	bne odd
	nop
	mov 2, %o1        ! even
	ba done
	nop
odd:	mov 1, %o1
done:	mov 1, %g1
	ta 0
`

func main() {
	eng := toolmain.AddEngine(flag.CommandLine)
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	check(err)
	defer stop()

	// Assemble the demo program into an executable image.
	prog, err := asm.Assemble(program, 0x10000)
	check(err)
	img := &eel.File{
		Format: "aout",
		Entry:  0x10000,
		Sections: []eel.Section{
			{Name: "text", Addr: 0x10000, Data: prog.Bytes},
		},
		Symbols: []eel.Symbol{
			{Name: "main", Addr: 0x10000, Kind: 0 /* SymFunc */, Global: true},
		},
	}

	// --- The Figure 1 tool ---
	exec, err := eel.Load(img)
	check(err)

	// AnalyzeAll builds every routine's CFG on the concurrent
	// pipeline, including hidden routines discovered along the way —
	// the paper's Figure 1 worklist, handled by the library's walk.
	res, err := eel.AnalyzeAll(exec, eel.AnalysisOptions{})
	check(err)

	num := 0
	var counters []uint32
	for _, a := range res.Analyses {
		check(a.Err)
		r := a.Routine
		for _, b := range a.Graph.Blocks {
			if len(b.Succ) <= 1 {
				continue
			}
			for _, e := range b.Succ {
				if e.Uneditable {
					continue
				}
				addr := exec.AllocData(4)
				check(r.AddCodeAlong(e, incrCount(addr)))
				counters = append(counters, addr)
				num++
			}
		}
		check(r.ProduceEditedRoutine())
	}

	edited, err := exec.BuildEdited()
	check(err)
	fmt.Printf("instrumented %d edges; text %d -> %d bytes\n",
		num, len(img.Text().Data), len(edited.Text().Data))

	// --- Run both versions ---
	start := time.Now()
	orig := sim.LoadFile(img, os.Stdout)
	orig.Engine = *eng
	check(orig.Run(1_000_000))
	inst := sim.LoadFile(edited, os.Stdout)
	inst.Engine = *eng
	check(inst.Run(1_000_000))
	rate := float64(orig.InstCount+inst.InstCount) / time.Since(start).Seconds()
	fmt.Printf("original: exit %d in %d instructions\n", orig.ExitCode, orig.InstCount)
	fmt.Printf("edited:   exit %d in %d instructions (%.0f insts/sec)\n", inst.ExitCode, inst.InstCount, rate)
	if of.Stats {
		toolmain.WriteEngineStats(os.Stdout, "original", orig.Counters())
		toolmain.WriteEngineStats(os.Stdout, "edited", inst.Counters())
	}
	if orig.ExitCode != inst.ExitCode {
		fmt.Println("BEHAVIOUR DIVERGED — editing bug!")
		os.Exit(1)
	}
	for i, addr := range counters {
		fmt.Printf("counter %d = %d\n", i, inst.Mem.Read32(addr))
	}
}

// incrCount is the Figure 2 snippet: increment the counter at addr
// through two scavenged registers.
func incrCount(addr uint32) *eel.Snippet {
	p1, p2 := eel.Reg(16), eel.Reg(17)
	hi, err := sparc.EncodeSethi(p1, addr)
	check(err)
	ld, err := sparc.EncodeOp3Imm("ld", p2, p1, int32(sparc.Lo(addr)))
	check(err)
	add, err := sparc.EncodeOp3Imm("add", p2, p2, 1)
	check(err)
	st, err := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(addr)))
	check(err)
	return eel.NewSnippet([]uint32{hi, ld, add, st}, []eel.Reg{p1, p2})
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
