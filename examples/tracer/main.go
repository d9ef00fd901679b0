// The tracer example is qpt's other half (paper §1, §3.4): memory
// reference tracing.  Every load and store is preceded by a snippet
// appending its effective address to a trace buffer in the edited
// program's data segment.  It also runs the paper's Figure 4
// backward address slice over each traced site and reports how many
// address computations abstract execution could regenerate from
// easy/hard slices — the optimization that made qpt's traces compact.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eel"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/progen"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/toolmain"
)

func main() {
	seed := flag.Int64("seed", 4, "workload seed")
	show := flag.Int("show", 12, "trace entries to print")
	eng := toolmain.AddEngine(flag.CommandLine)
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	check(err)
	defer stop()

	cfg := progen.DefaultConfig(*seed)
	cfg.Routines = 12
	p, err := progen.Generate(cfg)
	check(err)

	exec, err := eel.Load(p.File)
	check(err)

	const bufWords = 1 << 16
	bufPtr := exec.AllocData(4)
	buf := exec.AllocData(4 * bufWords)

	// Whole-program analysis on the concurrent pipeline; hidden
	// routines discovered during CFG construction are analyzed too.
	res, err := eel.AnalyzeAll(exec, eel.AnalysisOptions{})
	check(err)

	sites, easy, hard, impossible := 0, 0, 0, 0
	for _, a := range res.Analyses {
		check(a.Err)
		r, g := a.Routine, a.Graph
		for _, b := range g.Blocks {
			if b.Uneditable {
				continue
			}
			for i, in := range b.Insts {
				if !in.MI.Category().IsMemory() {
					continue
				}
				snip, err := traceSnippet(g.ABI(), in.MI, bufPtr)
				check(err)
				check(r.AddCodeBefore(b, i, snip))
				sites++
				// Figure 4: slice the address register.
				a, _ := in.MI.Addr()
				for _, entry := range dataflow.BackwardSlice(g, b, i, a.Base) {
					switch entry.Mark {
					case dataflow.SliceEasy:
						easy++
					case dataflow.SliceHard:
						hard++
					default:
						impossible++
					}
				}
			}
		}
		check(r.ProduceEditedRoutine())
	}

	// The buffer pointer must start at the buffer: patch the initial
	// word via the image (AllocData memory is zero; we set it before
	// writing).  BuildEdited copies newData, so set it through a tiny
	// bootstrap: easiest is to make the first traced write initialize
	// it — instead we bake the value in via a data edit:
	edited, err := exec.BuildEdited()
	check(err)
	for i := range edited.Sections {
		s := &edited.Sections[i]
		if s.Contains(bufPtr) {
			off := bufPtr - s.Addr
			v := buf
			s.Data[off] = byte(v >> 24)
			s.Data[off+1] = byte(v >> 16)
			s.Data[off+2] = byte(v >> 8)
			s.Data[off+3] = byte(v)
		}
	}

	cpu := sim.LoadFile(edited, os.Stdout)
	cpu.Engine = *eng
	start := time.Now()
	check(cpu.Run(500_000_000))
	rate := float64(cpu.InstCount) / time.Since(start).Seconds()

	end := cpu.Mem.Read32(bufPtr)
	n := (end - buf) / 4
	fmt.Printf("traced %d memory sites; %d references recorded (%.0f insts/sec)\n", sites, n, rate)
	fmt.Printf("slice profile over traced sites: %d easy, %d hard, %d impossible\n", easy, hard, impossible)
	if of.Stats {
		toolmain.WriteEngineStats(os.Stdout, "traced", cpu.Counters())
	}
	fmt.Printf("first %d references:\n", *show)
	for i := uint32(0); i < uint32(*show) && i < n; i++ {
		fmt.Printf("  %#x\n", cpu.Mem.Read32(buf+4*i))
	}
}

// traceSnippet appends the site's effective address to the trace
// buffer: *bufPtr++ = EA.
func traceSnippet(abi *machine.ABI, inst *machine.Inst, bufPtr uint32) (*eel.Snippet, error) {
	phs, err := core.PickPlaceholders(abi, inst, 3)
	if err != nil {
		return nil, err
	}
	p1, p2, p3 := phs[0], phs[1], phs[2]
	var words []uint32
	emit := func(w uint32, err error) error {
		if err != nil {
			return err
		}
		words = append(words, w)
		return nil
	}
	a, ok := inst.Addr()
	if !ok {
		return nil, fmt.Errorf("tracer: %s has no address operand", inst)
	}
	if err := emit(sparc.EncodeAddr("add", p1, a)); err != nil {
		return nil, err
	}
	steps := []func() error{
		func() error { return emit(sparc.EncodeSethi(p2, bufPtr)) },
		func() error { return emit(sparc.EncodeOp3Imm("ld", p3, p2, int32(sparc.Lo(bufPtr)))) },
		func() error { return emit(sparc.EncodeOp3Imm("st", p1, p3, 0)) },
		func() error { return emit(sparc.EncodeOp3Imm("add", p3, p3, 4)) },
		func() error { return emit(sparc.EncodeOp3Imm("st", p3, p2, int32(sparc.Lo(bufPtr)))) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return eel.NewSnippet(words, []machine.Reg{p1, p2, p3}), nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}
