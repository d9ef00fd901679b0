// Command eelverify checks that an edited executable behaves exactly
// like its original: both run to completion on the bundled SPARC
// emulator and their exit codes, output, and (optionally) executed
// instruction counts are compared.  It is the mechanical form of the
// validation discipline this repository applies to every editing
// feature — something the paper's authors could only do by hand on
// real hardware.
//
// Usage:
//
//	eelverify [-engine chained|routine|translated|interp] [-stats]
//	          [-metrics] [-trace FILE] [-debug-addr ADDR] original edited
//	eelverify -gen 7 -instrument     (generate, instrument, verify)
//
// With -instrument, routine analysis runs on the concurrent
// internal/pipeline worker pool (-j bounds it) before the editing
// pass.  -stats prints the pipeline statistics and both runs' engine
// counters.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eel/internal/binfile"
	"eel/internal/pipeline"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/toolmain"
)

// errDiverged reports a verification failure; its message has already
// been printed.
var errDiverged = errors.New("behaviour diverged")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errDiverged) {
			fmt.Fprintln(os.Stderr, "eelverify:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("eelverify", flag.ContinueOnError)
	instrument := fs.Bool("instrument", false, "with -gen: instrument before verifying")
	maxSteps := fs.Uint64("max-steps", 500_000_000, "emulator step limit")
	engine := toolmain.AddEngine(fs)
	com := toolmain.AddCommon(fs)
	if err := fs.Parse(args); err != nil {
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

	var orig, edited *binfile.File
	switch {
	case com.Gen >= 0:
		// The -gen path edits, and editing is SPARC-only.
		if err := com.RequireSPARC(); err != nil {
			return err
		}
		if orig, _, err = com.OpenInput(""); err != nil {
			return err
		}
		e, err := toolmain.Load(orig)
		if err != nil {
			return err
		}
		if *instrument {
			if _, err := com.Analyze(e, pipeline.Options{NoDominators: true, NoLoops: true}); err != nil {
				return err
			}
			if _, err := qpt.Instrument(e, qpt.Full); err != nil {
				return err
			}
		}
		if edited, err = e.BuildEdited(); err != nil {
			return err
		}
	case fs.NArg() == 2:
		if orig, err = binfile.ReadFile(fs.Arg(0)); err != nil {
			return err
		}
		if edited, err = binfile.ReadFile(fs.Arg(1)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need two executables, or -gen")
	}

	o, oOut, oRate, err := execute(orig, *maxSteps, *engine)
	if err != nil {
		return fmt.Errorf("original: %w", err)
	}
	e, eOut, eRate, err := execute(edited, *maxSteps, *engine)
	if err != nil {
		return fmt.Errorf("edited: %w", err)
	}

	fmt.Fprintf(stdout, "original: exit %d, %d instructions, %d bytes output, %.0f insts/sec\n",
		o.ExitCode, o.InstCount, len(oOut), oRate)
	fmt.Fprintf(stdout, "edited:   exit %d, %d instructions, %d bytes output (%.2fx), %.0f insts/sec\n",
		e.ExitCode, e.InstCount, len(eOut), float64(e.InstCount)/float64(max(1, o.InstCount)), eRate)
	if com.Stats {
		toolmain.WriteEngineStats(stdout, "original", o.Counters())
		toolmain.WriteEngineStats(stdout, "edited", e.Counters())
	}

	if o.ExitCode != e.ExitCode || !bytes.Equal(oOut, eOut) {
		fmt.Fprintln(stdout, "VERIFY FAILED: behaviour diverged")
		return errDiverged
	}
	fmt.Fprintln(stdout, "VERIFY OK: identical behaviour")
	return nil
}

// execute runs f to completion on engine and reports the final CPU,
// its output, and its emulation rate in instructions per second.
func execute(f *binfile.File, maxSteps uint64, engine sim.Engine) (*sim.CPU, []byte, float64, error) {
	var out bytes.Buffer
	cpu := sim.LoadFile(f, &out)
	cpu.Engine = engine
	start := time.Now()
	if err := cpu.Run(maxSteps); err != nil {
		return nil, nil, 0, fmt.Errorf("execution: %w", err)
	}
	elapsed := time.Since(start).Seconds()
	if !cpu.Halted {
		return nil, nil, 0, fmt.Errorf("program did not halt")
	}
	rate := 0.0
	if elapsed > 0 {
		rate = float64(cpu.InstCount) / elapsed
	}
	return cpu, out.Bytes(), rate, nil
}
