package fuzz

import (
	"fmt"
	"io"
	"strings"

	"eel/internal/sim"
)

// Options configures a fuzzing run.
type Options struct {
	// N is the number of generated programs.
	N int
	// Seed is the master seed; iteration i derives its config from
	// Seed and i, so a whole run reproduces from one number.
	Seed int64
	// MaxSteps bounds each emulator execution.
	MaxSteps uint64
	// Oracles selects which oracles run, comma-separated from
	// "roundtrip", "lockstep", "edited"; empty means all.  The edited
	// oracle and the deterministic SPARC encoder sweep apply only when
	// ISA is SPARC (per-ISA sweeps live in the arch packages' tests).
	Oracles string
	// ISA selects the target machine ("sparc" when empty; "mips" runs
	// the MIPS generator and engines).
	ISA string
	// Log, when non-nil, receives per-iteration progress.
	Log io.Writer
	// Verbose logs every iteration rather than every failure.
	Verbose bool
	// NoShrink reports raw failures without minimizing them.
	NoShrink bool
}

// Failure is one reproducible oracle violation.
type Failure struct {
	// Iteration is the failing iteration number.
	Iteration int
	// Cfg reproduces the failing program (post-shrink if shrinking
	// ran).
	Cfg Config
	// Violations are the oracle reports for Cfg.
	Violations []Violation
	// Generalization summarizes required features and seed
	// sensitivity.
	Generalization string
}

// Report summarizes a run.
type Report struct {
	Iterations int
	// Programs is the number successfully generated (the rest are
	// generator errors, reported as failures).
	Programs int
	// Insts is the total instruction count executed by the lockstep
	// oracle's interpreter runs (a coverage proxy).
	Insts    uint64
	Failures []Failure
}

// OK reports whether the run found no violations.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

func (o *Options) oracleEnabled(name string) bool {
	if o.Oracles == "" {
		return true
	}
	for _, s := range strings.Split(o.Oracles, ",") {
		if strings.TrimSpace(s) == name {
			return true
		}
	}
	return false
}

// check builds the CheckFunc for the enabled oracles.
func (o *Options) check() CheckFunc {
	return func(p *Program, maxSteps uint64) []Violation {
		var vs []Violation
		if o.oracleEnabled("roundtrip") {
			vs = append(vs, CheckRoundTripWords(p)...)
		}
		if o.oracleEnabled("lockstep") {
			vs = append(vs, CheckLockstep(p, maxSteps)...)
		}
		if o.oracleEnabled("edited") {
			vs = append(vs, CheckEdited(p, maxSteps)...)
		}
		return vs
	}
}

// Run executes a fuzzing session: the deterministic encoder sweep
// once, then N generated programs through the enabled differential
// oracles, shrinking and generalizing every failure.
func Run(opts Options) *Report {
	if opts.N <= 0 {
		opts.N = 100
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	rep := &Report{Iterations: opts.N}
	check := opts.check()

	if opts.oracleEnabled("roundtrip") {
		if vs := CheckRoundTripSweep(decoderFor(opts.ISA)); len(vs) > 0 {
			rep.Failures = append(rep.Failures, Failure{
				Iteration:      -1,
				Violations:     vs,
				Generalization: "deterministic encoder/decoder sweep (no program involved)",
			})
		}
	}

	for i := 0; i < opts.N; i++ {
		cfg := RandConfig(opts.Seed, i)
		cfg.ISA = opts.ISA
		p, err := Generate(cfg)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{
				Iteration:  i,
				Cfg:        cfg,
				Violations: []Violation{{Oracle: "generate", Detail: err.Error()}},
			})
			opts.logf("iter %d: generation failed: %v", i, err)
			continue
		}
		rep.Programs++
		vs := check(p, opts.MaxSteps)
		if opts.oracleEnabled("lockstep") {
			if res := runOnce(p.File, opts.MaxSteps, sim.EngineInterp, p.decoder()); res.cpu != nil {
				rep.Insts += res.cpu.InstCount
			}
		}
		if len(vs) == 0 {
			if opts.Verbose {
				opts.logf("iter %d: ok (%s)", i, cfg)
			}
			continue
		}
		f := Failure{Iteration: i, Cfg: cfg, Violations: vs}
		if !opts.NoShrink {
			opts.logf("iter %d: %d violation(s), shrinking...", i, len(vs))
			f.Cfg = Shrink(cfg, check, opts.MaxSteps)
			if p2, err := Generate(f.Cfg); err == nil {
				if vs2 := check(p2, opts.MaxSteps); len(vs2) > 0 {
					f.Violations = vs2
				}
			}
			f.Generalization = Generalize(f.Cfg, check, opts.MaxSteps)
		}
		rep.Failures = append(rep.Failures, f)
		opts.logf("iter %d: FAIL %s", i, f.Cfg)
		for _, v := range f.Violations {
			opts.logf("  %s", v)
		}
		if f.Generalization != "" {
			opts.logf("  %s", f.Generalization)
		}
	}
	return rep
}
