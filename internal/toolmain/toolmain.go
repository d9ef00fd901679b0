// Package toolmain is the shared command-line driver behind cmd/qpt
// and cmd/qpt2: open (or generate) an executable, instrument it,
// write the edited program, and optionally run it on the emulator
// and report the profile.
package toolmain

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"eel/internal/binfile"
	"eel/internal/pipeline"
	"eel/internal/qpt"
	"eel/internal/sim"
)

// Run executes the tool with the given mode over args.
func Run(tool string, mode qpt.Mode, args []string) error {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	out := fs.String("o", "", "output path (default <input>.count)")
	runIt := fs.Bool("run", false, "execute the instrumented program and print the profile")
	optimal := fs.Bool("optimal", false, "use Ball-Larus spanning-tree counter placement (counts derived by flow conservation)")
	top := fs.Int("top", 10, "edges to print with -run")
	maxSteps := fs.Uint64("max-steps", 500_000_000, "emulator step limit")
	com := AddCommon(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stop, err := com.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stop()

	if err := com.RequireSPARC(); err != nil {
		return err
	}
	f, input, err := com.OpenInput(fs.Arg(0))
	if err != nil {
		return err
	}
	e, err := Load(f)
	if err != nil {
		return err
	}

	// Analyze all routines up front on the concurrent pipeline; the
	// instrumentation pass below then finds every CFG already built.
	// The mode's analysis options must be set before analysis, so the
	// cached graphs match the mode.
	qpt.Configure(e, mode)
	start := time.Now()
	if _, err := com.Analyze(e, pipeline.Options{
		NoDominators: true,
		NoLoops:      true,
	}); err != nil {
		return err
	}

	var res *qpt.Result
	var opt *qpt.OptimalResult
	if *optimal {
		opt, err = qpt.InstrumentOptimal(e)
	} else {
		res, err = qpt.Instrument(e, mode)
	}
	if err != nil {
		return err
	}
	edited, err := e.BuildEdited()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	outPath := *out
	if outPath == "" {
		outPath = input + ".count"
	}
	if err := binfile.WriteFile(outPath, edited); err != nil {
		return err
	}
	if *optimal {
		fmt.Printf("%s: optimal placement: %d counters cover %d CFG edges, edited text %d bytes, %.1fms\n",
			tool, opt.Counters, opt.Edges, len(edited.Text().Data),
			float64(elapsed.Microseconds())/1000)
	} else {
		fmt.Printf("%s: %d routines (%d hidden), %d counters, edited text %d bytes, %.1fms\n",
			tool, res.RoutinesSeen, res.HiddenSeen, res.Edits,
			len(edited.Text().Data), float64(elapsed.Microseconds())/1000)
	}

	if !*runIt {
		return nil
	}
	cpu := sim.LoadFile(edited, os.Stdout)
	if err := cpu.Run(*maxSteps); err != nil {
		return fmt.Errorf("executing instrumented program: %w", err)
	}
	if *optimal {
		fmt.Printf("exit %d after %d instructions; derived edge counts per routine:\n", cpu.ExitCode, cpu.InstCount)
		shown := 0
		for _, rp := range opt.Routines {
			derived, err := rp.DeriveCounts(cpu.Mem)
			if err != nil {
				return err
			}
			var total uint64
			for _, v := range derived {
				total += v
			}
			if total == 0 || shown >= *top {
				continue
			}
			shown++
			fmt.Printf("  %-16s %5d edges, %8d traversals (dense=%v)\n",
				rp.Routine.Name, len(derived), total, rp.Dense)
		}
		return nil
	}
	counts := res.ReadCounts(cpu.Mem)
	type row struct {
		c qpt.Counter
		n uint64
	}
	rows := make([]row, len(counts))
	for i := range counts {
		rows[i] = row{res.Counters[i], counts[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	fmt.Printf("exit %d after %d instructions; top edges:\n", cpu.ExitCode, cpu.InstCount)
	for i, r := range rows {
		if i >= *top || r.n == 0 {
			break
		}
		fmt.Printf("  %8d  %s at %#x (%s edge)\n", r.n, r.c.Routine, r.c.From, r.c.EdgeKind)
	}
	return nil
}
