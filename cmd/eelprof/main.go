// Command eelprof is a qpt-style execution profiler built on the
// bundled SPARC emulator: it runs a program (a file, or a progen
// workload with -gen) with per-pc profiling hooks enabled, analyzes
// the executable on the concurrent pipeline, and prints a
// deterministic hot-routine / hot-block profile with source-symbol
// attribution from the container's symbol table — the observability
// counterpart to qpt2's instrumentation-based edge profile, with no
// editing of the program at all.
//
// Usage:
//
//	eelprof [-gen seed] [-gen-routines N] [-top N]
//	        [-engine chained|routine|translated|interp] [-j N]
//	        [-stats] [-metrics] [-trace FILE] [-debug-addr ADDR] [input]
//
// -stats adds the analysis pipeline statistics and the emulator engine
// counters.  Because profiling hooks record per-pc counts that the
// routine tier's whole-routine programs do not maintain,
// -engine=routine degrades to the chained engine here; the flag still
// exists so scripts can pass a uniform engine selection to every tool.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"eel/internal/cfg"
	"eel/internal/pipeline"
	"eel/internal/sim"
	"eel/internal/telemetry"
	"eel/internal/toolmain"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eelprof:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("eelprof", flag.ContinueOnError)
	top := fs.Int("top", 10, "rows per table")
	maxSteps := fs.Uint64("max-steps", 500_000_000, "emulator step limit")
	engine := toolmain.AddEngine(fs)
	com := toolmain.AddCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The profile is attributed through the SPARC-only analysis
	// pipeline: refuse other machines before executing anything.
	if err := com.RequireSPARC(); err != nil {
		return err
	}

	stop, err := com.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	// Execute under the profiling emulator, analyze, and report.  The
	// report is deterministic for a given input: the same program
	// produces byte-identical output under every execution engine and
	// any worker count, apart from the -stats lines.
	f, name, err := com.OpenInput(fs.Arg(0))
	if err != nil {
		return err
	}
	cpu := sim.LoadFile(f, nil)
	cpu.Engine = *engine
	cpu.Decoder().AttachTelemetry(telemetry.Default())
	prof := cpu.EnableProfile()
	if err := cpu.Run(*maxSteps); err != nil {
		return fmt.Errorf("execution: %w", err)
	}
	prof.Publish(telemetry.Default())

	e, err := toolmain.Load(f)
	if err != nil {
		return err
	}
	res, err := com.Analyze(e, pipeline.Options{
		NoLiveness:   true,
		NoDominators: true,
		NoLoops:      true,
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, report(name, cpu, prof, res, *top, com.Stats))
	return err
}

// row is one attributed profile entry.
type row struct {
	name   string
	lo, hi uint32
	count  uint64
	insts  int
}

// report renders the hot-routine and hot-block tables.
func report(name string, cpu *sim.CPU, prof *sim.Profile, res *pipeline.Result, top int, stats bool) string {
	var b strings.Builder
	total := cpu.InstCount
	fmt.Fprintf(&b, "eelprof: %s: exit %d after %d instructions (%d annulled)\n",
		name, cpu.ExitCode, total, cpu.AnnulCount)
	takenPct := 0.0
	if prof.Branches > 0 {
		takenPct = 100 * float64(prof.BranchesTaken) / float64(prof.Branches)
	}
	fmt.Fprintf(&b, "branches: %d executed, %d taken (%.1f%%); traps: %d\n",
		prof.Branches, prof.BranchesTaken, takenPct, prof.Traps)
	if stats {
		toolmain.WriteEngineStats(&b, name, cpu.Counters())
	}

	var routines []row
	var blocks []row
	for _, a := range res.Analyses {
		if a.Err != nil {
			continue
		}
		r := a.Routine
		var rc uint64
		for pc := r.Start; pc < r.End; pc += 4 {
			rc += prof.PCCount(pc)
		}
		if rc > 0 {
			routines = append(routines, row{name: r.Name, lo: r.Start, hi: r.End, count: rc})
		}
		for _, blk := range a.Graph.Blocks {
			if blk.Kind != cfg.KindNormal && blk.Kind != cfg.KindDelaySlot {
				continue
			}
			var bc uint64
			for _, in := range blk.Insts {
				bc += prof.PCCount(in.Addr)
			}
			if bc == 0 {
				continue
			}
			last := blk.Insts[len(blk.Insts)-1].Addr
			blocks = append(blocks, row{
				name:  fmt.Sprintf("%s+%#x B%d", r.Name, blk.Start()-r.Start, blk.ID),
				lo:    blk.Start(),
				hi:    last + 4,
				count: bc,
				insts: len(blk.Insts),
			})
		}
	}
	byHotness := func(rows []row) {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].count != rows[j].count {
				return rows[i].count > rows[j].count
			}
			return rows[i].lo < rows[j].lo
		})
	}
	byHotness(routines)
	byHotness(blocks)

	fmt.Fprintf(&b, "\nhot routines (top %d of %d):\n", min(top, len(routines)), len(routines))
	fmt.Fprintf(&b, "  %%time      insts  routine\n")
	for i, r := range routines {
		if i >= top {
			break
		}
		fmt.Fprintf(&b, "  %5.1f%% %10d  %-20s %#x..%#x\n",
			100*float64(r.count)/float64(max(total, 1)), r.count, r.name, r.lo, r.hi)
	}
	fmt.Fprintf(&b, "\nhot blocks (top %d of %d):\n", min(top, len(blocks)), len(blocks))
	fmt.Fprintf(&b, "  %%time      insts  block\n")
	for i, r := range blocks {
		if i >= top {
			break
		}
		fmt.Fprintf(&b, "  %5.1f%% %10d  %-28s %#x..%#x (%d insts)\n",
			100*float64(r.count)/float64(max(total, 1)), r.count, r.name, r.lo, r.hi, r.insts)
	}
	return b.String()
}
