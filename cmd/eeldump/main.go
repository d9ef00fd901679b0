// Command eeldump inspects an executable through EEL's eyes: the
// container's sections and raw symbols, the refined routine list
// (hidden routines, multiple entry points), per-routine CFG structure
// and statistics, a disassembly, and indirect-jump resolutions.
// Routines are analyzed concurrently by the internal/pipeline worker
// pool (-j bounds the pool); output is identical for any -j.
//
// Usage:
//
//	eeldump [-routine name] [-dis] [-cfg] [-gen seed] [-j N] [-stats]
//	        [-metrics] [-trace FILE] [-debug-addr ADDR] [input]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"eel/internal/cfg"
	"eel/internal/pipeline"
	"eel/internal/sparc"
	"eel/internal/toolmain"
)

func main() {
	routine := flag.String("routine", "", "limit detail to one routine")
	dis := flag.Bool("dis", false, "disassemble routines")
	showCFG := flag.Bool("cfg", false, "print CFG structure")
	dot := flag.Bool("dot", false, "emit CFGs as Graphviz dot")
	com := toolmain.AddCommon(flag.CommandLine)
	flag.Parse()

	stop, err := com.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer stop()

	f, _, err := com.OpenInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("format %s, entry %#x\n", f.Format, f.Entry)
	for _, s := range f.Sections {
		fmt.Printf("  section %-8s %#08x..%#08x (%d bytes)\n", s.Name, s.Addr, s.End(), len(s.Data))
	}
	fmt.Printf("  %d raw symbols\n", len(f.Symbols))

	e, err := toolmain.Load(f)
	if err != nil {
		fatal(err)
	}

	res, err := com.Analyze(e, pipeline.Options{
		NoLiveness:   true,
		NoDominators: true,
		NoLoops:      true,
	})
	if err != nil {
		fatal(err)
	}

	var agg cfg.Stats
	indirect, unresolved := 0, 0
	for _, a := range res.Analyses {
		r := a.Routine
		if *routine != "" && r.Name != *routine {
			continue
		}
		if a.Err != nil {
			fmt.Printf("routine %-16s %#08x..%#08x  CFG error: %v\n", r.Name, r.Start, r.End, a.Err)
			continue
		}
		g := a.Graph
		s := g.Stats()
		agg.Blocks += s.Blocks
		agg.NormalBlocks += s.NormalBlocks
		agg.DelaySlotBlocks += s.DelaySlotBlocks
		agg.EntryExitBlocks += s.EntryExitBlocks
		agg.CallSurrogates += s.CallSurrogates
		agg.Edges += s.Edges
		agg.UneditableB += s.UneditableB
		agg.UneditableE += s.UneditableE
		flags := ""
		if r.Hidden {
			flags += " hidden"
		}
		if len(r.Entries) > 1 {
			flags += fmt.Sprintf(" entries=%d", len(r.Entries))
		}
		if g.HasData {
			flags += " has-data"
		}
		if !g.Complete {
			flags += " incomplete"
		}
		fmt.Printf("routine %-16s %#08x..%#08x  %3d blocks %3d edges%s\n",
			r.Name, r.Start, r.End, s.Blocks, s.Edges, flags)
		for _, ij := range g.IndirectJumps {
			indirect++
			switch {
			case ij.Resolved && ij.Literal:
				fmt.Printf("    ijump at %#x: literal %#x\n", ij.Addr, ij.LiteralTarget)
			case ij.Resolved:
				fmt.Printf("    ijump at %#x: table %#x (%d entries)\n", ij.Addr, ij.TableAddr, ij.TableLen)
			default:
				unresolved++
				fmt.Printf("    ijump at %#x: UNRESOLVED (run-time translation)\n", ij.Addr)
			}
		}
		if *showCFG {
			printCFG(g)
		}
		if *dot {
			printDot(r.Name, g)
		}
		if *dis {
			disassemble(g)
		}
	}
	fmt.Printf("\ntotals: %d blocks (%d normal, %d delay-slot, %d entry/exit, %d surrogate), %d edges\n",
		agg.Blocks, agg.NormalBlocks, agg.DelaySlotBlocks, agg.EntryExitBlocks, agg.CallSurrogates, agg.Edges)
	if agg.Blocks > 0 {
		fmt.Printf("uneditable: %.1f%% of blocks, %.1f%% of edges\n",
			100*float64(agg.UneditableB)/float64(agg.Blocks),
			100*float64(agg.UneditableE)/float64(agg.Edges))
	}
	fmt.Printf("indirect jumps: %d (%d unresolved)\n", indirect, unresolved)
}

// printDot renders one routine's CFG in Graphviz syntax: normal
// blocks as boxes, delay slots as ellipses, surrogates as diamonds,
// uneditable elements dashed.
func printDot(name string, g *cfg.Graph) {
	fmt.Printf("digraph %q {\n  rankdir=TB; node [fontname=monospace];\n", name)
	for _, b := range g.Blocks {
		label := fmt.Sprintf("B%d %s", b.ID, b.Kind)
		if b.Start() != 0 {
			label += fmt.Sprintf("\\n%#x (%d insts)", b.Start(), len(b.Insts))
		}
		shape := "box"
		switch b.Kind {
		case cfg.KindDelaySlot:
			shape = "ellipse"
		case cfg.KindCallSurrogate:
			shape = "diamond"
		case cfg.KindEntry, cfg.KindExit:
			shape = "circle"
		}
		style := ""
		if b.Uneditable {
			style = ", style=dashed"
		}
		fmt.Printf("  n%d [label=%q, shape=%s%s];\n", b.ID, label, shape, style)
	}
	for _, e := range g.Edges {
		style := ""
		if e.Uneditable {
			style = " [style=dashed]"
		}
		fmt.Printf("  n%d -> n%d%s; // %s\n", e.From.ID, e.To.ID, style, e.Kind)
	}
	fmt.Println("}")
}

func printCFG(g *cfg.Graph) {
	blocks := append([]*cfg.Block(nil), g.Blocks...)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	for _, b := range blocks {
		mark := ""
		if b.Uneditable {
			mark = " (uneditable)"
		}
		fmt.Printf("    B%-3d %-13s start=%#x insts=%d%s →", b.ID, b.Kind, b.Start(), len(b.Insts), mark)
		for _, e := range b.Succ {
			fmt.Printf(" B%d[%s]", e.To.ID, e.Kind)
		}
		fmt.Println()
	}
}

func disassemble(g *cfg.Graph) {
	for _, b := range g.Blocks {
		if b.Kind != cfg.KindNormal && b.Kind != cfg.KindDelaySlot {
			continue
		}
		for _, in := range b.Insts {
			fmt.Printf("    %#08x  %08x  %s\n", in.Addr, in.MI.Word(), sparc.Disasm(in.MI, in.Addr))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eeldump:", err)
	os.Exit(1)
}
