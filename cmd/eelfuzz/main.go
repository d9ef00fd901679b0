// Command eelfuzz runs the differential-fuzzing harness: randomized
// programs for the selected machine (-isa sparc or mips; a
// generalization of internal/progen) are checked against differential
// oracles — decode/encode round-trip, interpreter vs
// translation-cache lockstep, and (SPARC only) original vs edited
// behavioral equivalence.  Failures are shrunk to a minimal
// configuration and generalized before being reported.
//
// Usage:
//
//	eelfuzz [-n 1000] [-seed 1] [-isa sparc|mips]
//	        [-oracle roundtrip,lockstep,edited]
//	        [-max-steps N] [-no-shrink] [-v] [-dump SEED]
//
// Exit status is 1 when any oracle is violated and 2 when the command
// line is refused (an -isa no generator covers, a bad flag).  A
// violation report includes the failing Config one-liner; -dump
// regenerates that program's assembly source for inspection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eel/internal/fuzz"
	"eel/internal/progen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes the command line args and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("eelfuzz", flag.ContinueOnError)
	n := fs.Int("n", 1000, "number of generated programs")
	seed := fs.Int64("seed", 1, "master seed (whole run reproduces from it)")
	oracle := fs.String("oracle", "", "comma-separated oracle subset: roundtrip,lockstep,edited (default all; edited is sparc-only)")
	isa := fs.String("isa", "sparc", "target machine: sparc or mips")
	maxSteps := fs.Uint64("max-steps", 50_000_000, "emulator step limit per execution")
	noShrink := fs.Bool("no-shrink", false, "report failures without shrinking")
	verbose := fs.Bool("v", false, "log every iteration")
	dump := fs.Int64("dump", -1, "print the generated source for this seed (default config) and exit")
	routines := fs.Int("routines", 0, "with -dump: override routine count")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if !progen.Covers(*isa) {
		fmt.Fprintf(os.Stderr, "eelfuzz: no program generator for -isa=%s (sparc and mips have one)\n", *isa)
		return 2
	}

	if *dump >= 0 {
		cfg := fuzz.DefaultConfig(*dump)
		cfg.Seed = *dump
		cfg.ISA = *isa
		if *routines > 0 {
			cfg.Routines = *routines
		}
		p, err := fuzz.Generate(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "eelfuzz:", err)
			return 2
		}
		fmt.Fprint(stdout, p.Source)
		return 0
	}

	rep := fuzz.Run(fuzz.Options{
		N:        *n,
		Seed:     *seed,
		MaxSteps: *maxSteps,
		Oracles:  *oracle,
		ISA:      *isa,
		Log:      os.Stderr,
		Verbose:  *verbose,
		NoShrink: *noShrink,
	})

	fmt.Fprintf(stdout, "eelfuzz: %d programs generated (%d iterations), %d instructions interpreted, %d failure(s)\n",
		rep.Programs, rep.Iterations, rep.Insts, len(rep.Failures))
	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "\nFAILURE (iteration %d): %s\n", f.Iteration, f.Cfg)
		for _, v := range f.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		if f.Generalization != "" {
			fmt.Fprintf(stdout, "  %s\n", f.Generalization)
		}
	}
	if !rep.OK() {
		return 1
	}
	return 0
}
