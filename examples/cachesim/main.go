// The cachesim example reproduces Active Memory (paper §1, §5): a
// direct-mapped cache is simulated by inserting a branch-free state
// test before every load and store, bringing cache simulation down
// to the 2-7× slowdown the paper reports (instead of trace
// post-processing).  It generates a synthetic workload, instruments
// it, runs original and instrumented versions on the emulator, and
// reports miss ratio and slowdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eel"
	"eel/internal/activemem"
	"eel/internal/obs"
	"eel/internal/progen"
	"eel/internal/sim"
	"eel/internal/toolmain"
)

func main() {
	seed := flag.Int64("seed", 11, "workload generator seed")
	routines := flag.Int("routines", 40, "workload size")
	lineBytes := flag.Int("line", 16, "cache line size")
	sets := flag.Int("sets", 256, "direct-mapped sets")
	eng := toolmain.AddEngine(flag.CommandLine)
	of := obs.AddFlags(flag.CommandLine)
	flag.Parse()

	stop, err := of.Start(os.Stderr)
	check(err)
	defer stop()

	cfg := progen.DefaultConfig(*seed)
	cfg.Routines = *routines
	p, err := progen.Generate(cfg)
	check(err)

	orig := sim.LoadFile(p.File, os.Stdout)
	orig.Engine = *eng
	check(orig.Run(500_000_000))

	exec, err := eel.Load(p.File)
	check(err)
	// Analyze the whole program on the concurrent pipeline first;
	// instrumentation below reuses every cached CFG and liveness.
	ares, err := eel.AnalyzeAll(exec, eel.AnalysisOptions{})
	check(err)
	res, err := activemem.Instrument(exec, activemem.Config{LineBytes: *lineBytes, Sets: *sets})
	check(err)
	edited, err := exec.BuildEdited()
	check(err)

	inst := sim.LoadFile(edited, os.Stdout)
	inst.Engine = *eng
	simStart := time.Now()
	check(inst.Run(2_000_000_000))
	simRate := float64(inst.InstCount) / time.Since(simStart).Seconds()
	if inst.ExitCode != orig.ExitCode {
		fmt.Fprintln(os.Stderr, "cachesim: edited program diverged!")
		os.Exit(1)
	}
	if of.Stats {
		toolmain.WriteEngineStats(os.Stdout, "original", orig.Counters())
		toolmain.WriteEngineStats(os.Stdout, "instrumented", inst.Counters())
	}

	accesses, misses := res.Counts(inst.Mem)
	slowdown := float64(inst.InstCount) / float64(orig.InstCount)
	fmt.Printf("workload: %d routines, %d memory sites instrumented\n", *routines, res.Sites)
	fmt.Printf("analysis: %d routines at %.0f routines/s (%d workers)\n",
		ares.Stats.Routines, ares.Stats.RoutinesPerSec(), ares.Stats.Workers)
	fmt.Printf("cache: %d sets x %dB lines (%d KB direct-mapped)\n",
		*sets, *lineBytes, *sets**lineBytes/1024)
	fmt.Printf("original run:     %10d instructions\n", orig.InstCount)
	fmt.Printf("instrumented run: %10d instructions (%.1fx slowdown — paper reports 2-7x) at %.0f insts/sec\n",
		inst.InstCount, slowdown, simRate)
	fmt.Printf("accesses %d, misses %d (%.1f%% miss ratio)\n",
		accesses, misses, 100*float64(misses)/float64(max(1, accesses)))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}
