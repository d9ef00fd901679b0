package eel_test

// Benchmarks regenerating the paper's tables and figures (see
// DESIGN.md's experiment index) plus ablations of the design choices
// DESIGN.md calls out.  Custom metrics carry the paper's "shape"
// numbers: slowdown ratios, size ratios, analysis rates.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"eel"
	"eel/internal/activemem"
	"eel/internal/asm"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/telemetry"
)

// benchProgram caches one medium workload for the benchmarks: seed
// 2012 executes ~43k instructions including ~800 dispatch-table
// jumps, so the slicing and folding ablations have something to
// measure.
var benchProgram = func() *progen.Program {
	cfg := progen.DefaultConfig(2012)
	cfg.Routines = 60
	return progen.MustGenerate(cfg)
}()

// BenchmarkTable1QptVsQpt2 is experiment E1: instrumentation
// throughput and output quality of the ad-hoc baseline vs EEL,
// unoptimized and optimized.
func BenchmarkTable1QptVsQpt2(b *testing.B) {
	variants := []struct {
		name string
		mode qpt.Mode
		opts func(e *core.Executable)
	}{
		{"qpt-adhoc", qpt.Light, nil},
		{"qpt2", qpt.Full, func(e *core.Executable) {
			e.Scavenge = false
			e.FoldDelaySlots = false
		}},
		{"qpt2-O2", qpt.Full, nil},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var textBytes, runInsts float64
			for i := 0; i < b.N; i++ {
				e, err := core.NewExecutable(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.ReadContents(); err != nil {
					b.Fatal(err)
				}
				if v.opts != nil {
					v.opts(e)
				}
				if _, err := qpt.Instrument(e, v.mode); err != nil {
					b.Fatal(err)
				}
				edited, err := e.BuildEdited()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					textBytes = float64(len(edited.Text().Data))
					cpu := sim.LoadFile(edited, nil)
					if err := cpu.Run(2_000_000_000); err != nil {
						b.Fatal(err)
					}
					runInsts = float64(cpu.InstCount)
					b.StartTimer()
				}
			}
			b.ReportMetric(textBytes, "text-bytes")
			b.ReportMetric(runInsts, "run-insts")
		})
	}
}

// BenchmarkIndirectJumpsGCC / SunPro are experiments E2/E3: full
// program analysis including dispatch-table slicing.
func benchmarkJumps(b *testing.B, pers progen.Personality) {
	cfg := progen.DefaultConfig(7)
	cfg.Personality = pers
	p := progen.MustGenerate(cfg)
	var indirect, unresolved int
	for i := 0; i < b.N; i++ {
		indirect, unresolved = 0, 0
		e, err := eel.Load(p.File)
		if err != nil {
			b.Fatal(err)
		}
		e.EachRoutine(func(r *eel.Routine) error {
			g, err := r.ControlFlowGraph()
			if err != nil {
				return nil
			}
			for _, ij := range g.IndirectJumps {
				indirect++
				if !ij.Resolved {
					unresolved++
				}
			}
			return nil
		})
	}
	b.ReportMetric(float64(indirect), "ijumps")
	b.ReportMetric(float64(unresolved), "unresolved")
}

func BenchmarkIndirectJumpsGCC(b *testing.B)    { benchmarkJumps(b, progen.GCC) }
func BenchmarkIndirectJumpsSunPro(b *testing.B) { benchmarkJumps(b, progen.SunPro) }

// BenchmarkUneditableFraction is experiment E4 as a CFG-construction
// throughput benchmark.
func BenchmarkUneditableFraction(b *testing.B) {
	p := benchProgram
	var ub, ue, tb, te int
	for i := 0; i < b.N; i++ {
		e, err := eel.Load(p.File)
		if err != nil {
			b.Fatal(err)
		}
		ub, ue, tb, te = 0, 0, 0, 0
		e.EachRoutine(func(r *eel.Routine) error {
			g, err := r.ControlFlowGraph()
			if err != nil {
				return nil
			}
			s := g.Stats()
			ub += s.UneditableB
			ue += s.UneditableE
			tb += s.Blocks
			te += s.Edges
			return nil
		})
	}
	b.ReportMetric(100*float64(ub)/float64(tb), "uneditable-blocks-%")
	b.ReportMetric(100*float64(ue)/float64(te), "uneditable-edges-%")
}

// BenchmarkInstructionSharing is experiment E6's ablation: decode
// throughput and allocations with and without interning.
func BenchmarkInstructionSharing(b *testing.B) {
	text := benchProgram.File.Text()
	for _, intern := range []bool{true, false} {
		name := "interned"
		if !intern {
			name = "uninterned"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			dec := sparc.NewDecoder()
			dec.SetIntern(intern)
			for i := 0; i < b.N; i++ {
				for a := text.Addr; a+4 <= text.End(); a += 4 {
					off := a - text.Addr
					w := uint32(text.Data[off])<<24 | uint32(text.Data[off+1])<<16 |
						uint32(text.Data[off+2])<<8 | uint32(text.Data[off+3])
					dec.Decode(w)
				}
			}
		})
	}
}

// BenchmarkSpawnCompile is experiment E9: compiling machine
// descriptions.
func BenchmarkSpawnCompile(b *testing.B) {
	for _, src := range []struct {
		name string
		text string
	}{{"sparc", sparc.DescriptionSource}, {"mips", mips.DescriptionSource}} {
		b.Run(src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := spawn.ParseDesc(src.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkActiveMemory is experiment E10: executing the
// cache-instrumented program; the slowdown metric is the paper's
// headline 2-7x.
func BenchmarkActiveMemory(b *testing.B) {
	cfg := progen.DefaultConfig(1011)
	cfg.MemHeavy = true
	p := progen.MustGenerate(cfg)
	orig := sim.LoadFile(p.File, nil)
	if err := orig.Run(2_000_000_000); err != nil {
		b.Fatal(err)
	}
	e, err := eel.Load(p.File)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := activemem.Instrument(e, activemem.DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	edited, err := e.BuildEdited()
	if err != nil {
		b.Fatal(err)
	}
	var slowdown float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := sim.LoadFile(edited, nil)
		if err := cpu.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
		slowdown = float64(cpu.InstCount) / float64(orig.InstCount)
	}
	b.ReportMetric(slowdown, "slowdown-x")
}

// BenchmarkBlizzardCC is experiment E11: the liveness analysis that
// enables the cc-aware access test.
func BenchmarkBlizzardCC(b *testing.B) {
	e, err := eel.Load(benchProgram.File)
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*eel.CFG
	e.EachRoutine(func(r *eel.Routine) error {
		if g, err := r.ControlFlowGraph(); err == nil {
			graphs = append(graphs, g)
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			eel.ComputeLiveness(g)
		}
	}
}

// BenchmarkScavengeVsSpill ablates snippet register scavenging: the
// run-insts metric shows the edited program's execution cost with
// liveness-driven allocation vs always-spilling.
func BenchmarkScavengeVsSpill(b *testing.B) {
	for _, scavenge := range []bool{true, false} {
		name := "scavenge"
		if !scavenge {
			name = "spill"
		}
		b.Run(name, func(b *testing.B) {
			var runInsts float64
			for i := 0; i < b.N; i++ {
				e, err := core.NewExecutable(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.ReadContents(); err != nil {
					b.Fatal(err)
				}
				e.Scavenge = scavenge
				if _, err := qpt.Instrument(e, qpt.Full); err != nil {
					b.Fatal(err)
				}
				edited, err := e.BuildEdited()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					cpu := sim.LoadFile(edited, nil)
					if err := cpu.Run(2_000_000_000); err != nil {
						b.Fatal(err)
					}
					runInsts = float64(cpu.InstCount)
					b.StartTimer()
				}
			}
			b.ReportMetric(runInsts, "run-insts")
		})
	}
}

// BenchmarkSliceVsRuntime ablates dispatch-table slicing: resolved
// jumps keep their (rewritten) tables; forcing run-time translation
// shows the cost the slicer avoids.
func BenchmarkSliceVsRuntime(b *testing.B) {
	for _, force := range []bool{false, true} {
		name := "sliced"
		if force {
			name = "runtime-translate"
		}
		b.Run(name, func(b *testing.B) {
			var runInsts float64
			for i := 0; i < b.N; i++ {
				e, err := core.NewExecutable(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.ReadContents(); err != nil {
					b.Fatal(err)
				}
				e.ForceRuntimeTranslation = force
				if _, err := qpt.Instrument(e, qpt.Full); err != nil {
					b.Fatal(err)
				}
				edited, err := e.BuildEdited()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					cpu := sim.LoadFile(edited, nil)
					if err := cpu.Run(2_000_000_000); err != nil {
						b.Fatal(err)
					}
					runInsts = float64(cpu.InstCount)
					b.StartTimer()
				}
			}
			b.ReportMetric(runInsts, "run-insts")
		})
	}
}

// BenchmarkDelaySlotFolding ablates folding hoisted slot
// instructions back into delay slots (§3.3): the text-bytes metric
// shows the size cost of leaving them unfolded.
func BenchmarkDelaySlotFolding(b *testing.B) {
	for _, fold := range []bool{true, false} {
		name := "folded"
		if !fold {
			name = "unfolded"
		}
		b.Run(name, func(b *testing.B) {
			var textBytes float64
			for i := 0; i < b.N; i++ {
				e, err := core.NewExecutable(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.ReadContents(); err != nil {
					b.Fatal(err)
				}
				e.FoldDelaySlots = fold
				edited, err := e.BuildEdited()
				if err != nil {
					b.Fatal(err)
				}
				textBytes = float64(len(edited.Text().Data))
			}
			b.ReportMetric(textBytes, "text-bytes")
		})
	}
}

// BenchmarkPipelineParallel is the pipeline scaling experiment: full
// whole-executable analysis (CFG + liveness + dominators + loops) at
// 1, 2, 4, and GOMAXPROCS workers.  The routines/s metric is the
// pipeline's throughput; speedup only appears when the host grants
// more than one CPU.
func BenchmarkPipelineParallel(b *testing.B) {
	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var routines float64
			for i := 0; i < b.N; i++ {
				e, err := eel.Load(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				routines = float64(res.Stats.Routines)
			}
			b.ReportMetric(routines, "routines")
			b.ReportMetric(routines*float64(b.N)/b.Elapsed().Seconds(), "routines/s")
		})
	}
}

// BenchmarkPipelineCache measures the memoizing analysis cache: cold
// is a first analysis into an empty cache, warm re-analyzes a fresh
// executable with every routine served from cache.
func BenchmarkPipelineCache(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			var cache *eel.AnalysisCache
			if warm {
				cache = eel.NewAnalysisCache(0)
				e, err := eel.Load(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eel.AnalyzeAll(e, eel.AnalysisOptions{Cache: cache}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			var hitRate float64
			for i := 0; i < b.N; i++ {
				if !warm {
					cache = eel.NewAnalysisCache(0)
				}
				e, err := eel.Load(benchProgram.File)
				if err != nil {
					b.Fatal(err)
				}
				res, err := eel.AnalyzeAll(e, eel.AnalysisOptions{Cache: cache})
				if err != nil {
					b.Fatal(err)
				}
				hitRate = res.Stats.CacheHitRate()
			}
			b.ReportMetric(100*hitRate, "hit-%")
		})
	}
}

// BenchmarkCFGConstruction measures the core analysis kernel.
func BenchmarkCFGConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := eel.Load(benchProgram.File)
		if err != nil {
			b.Fatal(err)
		}
		e.EachRoutine(func(r *eel.Routine) error {
			r.ControlFlowGraph()
			return nil
		})
	}
}

// BenchmarkDominators measures dominator computation over the corpus.
func BenchmarkDominators(b *testing.B) {
	e, err := eel.Load(benchProgram.File)
	if err != nil {
		b.Fatal(err)
	}
	var graphs []*eel.CFG
	e.EachRoutine(func(r *eel.Routine) error {
		if g, err := r.ControlFlowGraph(); err == nil {
			graphs = append(graphs, g)
		}
		return nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			idom := dataflow.Dominators(g)
			dataflow.NaturalLoops(g, idom)
		}
	}
}

// BenchmarkEmulator measures raw emulation speed (simulated
// instructions per second).
func BenchmarkEmulator(b *testing.B) {
	start := time.Now()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cpu := sim.LoadFile(benchProgram.File, nil)
		if err := cpu.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
		insts += cpu.InstCount
	}
	sec := time.Since(start).Seconds()
	if sec > 0 {
		b.ReportMetric(float64(insts)/sec, "sim-insts/s")
	}
}

// benchLoopProgram is the loop-heavy flavour: a hot counted loop in
// main repeatedly calls the routine DAG, so execution is dominated by
// the same paths crossing many block boundaries — the workload where
// inter-block dispatch overhead (and therefore chaining and trace
// extension) matters most.
var benchLoopProgram = func() *progen.Program {
	cfg := progen.DefaultConfig(2012)
	cfg.BodyOps = 12
	cfg.HotLoop = 8000
	return progen.MustGenerate(cfg)
}()

// benchCallProgram is the call-heavy flavour: every non-tail routine
// makes windowed calls deeper into the DAG, so execution is dominated
// by call/return boundaries — exactly where the routine tier's
// zero-spill cross-routine continuation pays and where per-block
// engines pay dispatch on every transfer.
var benchCallProgram = func() *progen.Program {
	cfg := progen.DefaultConfig(2012)
	cfg.Routines = 30 // ~5.9M executed insts: big enough to dwarf load/translate fixed costs, small enough for the interpreter leg of CI
	cfg.CallHeavy = true
	return progen.MustGenerate(cfg)
}()

// simFlavours are the workloads the engine benchmarks run, each
// reported as its own sub-benchmark; scripts/benchmerge gates the
// per-flavour engine ratios.
var simFlavours = []struct {
	name string
	prog *progen.Program
}{
	{"medium", benchProgram},
	{"loopheavy", benchLoopProgram},
	{"callheavy", benchCallProgram},
}

// benchmarkSim runs each workload flavour end to end in one of the
// four execution engines and reports simulated instructions per
// second; chained runs also report chain/IC hit rates and traces,
// routine runs the tier counters.  The routine tier compiles
// synchronously at the lowest heat threshold so every iteration
// measures steady-state routine execution (the content-addressed
// program cache makes compilation a lookup after the first
// iteration, mirroring a warmed long-running process).
func benchmarkSim(b *testing.B, engine sim.Engine) {
	for _, f := range simFlavours {
		prog := f.prog
		b.Run(f.name, func(b *testing.B) {
			start := time.Now()
			var insts uint64
			var k sim.Counters
			for i := 0; i < b.N; i++ {
				cpu := sim.LoadFile(prog.File, nil)
				cpu.Engine = engine
				if engine == sim.EngineRoutine {
					cpu.RoutineSync = true
					cpu.RoutineHotThreshold = 1
				}
				if err := cpu.Run(2_000_000_000); err != nil {
					b.Fatal(err)
				}
				insts += cpu.InstCount
				k = cpu.Counters()
			}
			sec := time.Since(start).Seconds()
			if sec > 0 {
				b.ReportMetric(float64(insts)/sec, "sim-insts/s")
			}
			switch engine {
			case sim.EngineRoutine:
				b.ReportMetric(float64(k.RoutinesCompiled), "routines-compiled")
				b.ReportMetric(float64(k.RoutineDeopts), "routine-deopts")
			case sim.EngineChained:
				b.ReportMetric(hitPct(k.ChainHits, k.ChainMisses), "chain-hit-%")
				b.ReportMetric(hitPct(k.ICHits, k.ICMisses), "ic-hit-%")
				b.ReportMetric(float64(k.Traces), "traces")
				b.ReportMetric(float64(k.VictimHits), "victim-hits")
			}
		})
	}
}

func hitPct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// BenchmarkSimInterp is the single-step AST-interpreter baseline.
func BenchmarkSimInterp(b *testing.B) { benchmarkSim(b, sim.EngineInterp) }

// BenchmarkSimTranslated is the translation-cache (threaded-code)
// engine with chaining disabled — every superblock exit returns to
// the dispatcher, as in the original engine; its sim-insts/s over
// BenchmarkSimInterp's is the translation speedup.
func BenchmarkSimTranslated(b *testing.B) { benchmarkSim(b, sim.EngineTranslated) }

// BenchmarkSimChained is the block engine — translation cache plus
// block chaining, indirect-jump inline caches, and trace extension.
// Its sim-insts/s over BenchmarkSimTranslated's isolates the dispatch
// overhead that chaining removes.
func BenchmarkSimChained(b *testing.B) { benchmarkSim(b, sim.EngineChained) }

// BenchmarkSimRoutine is the whole-routine tier on top of the chained
// engine: hot routine entries are compiled against CFG + liveness into
// flat programs where registers and condition codes stay in locals
// across block boundaries.  Its sim-insts/s over BenchmarkSimChained's
// is the residency speedup.
func BenchmarkSimRoutine(b *testing.B) { benchmarkSim(b, sim.EngineRoutine) }

// BenchmarkSimTelemetry is the observability-overhead experiment: the
// same workload AND the same engine as BenchmarkSimTranslated with
// telemetry fully enabled (process-wide registry + tracer).  Its
// sim-insts/s against BenchmarkSimTranslated's is the enabled cost; the
// disabled cost is what BenchmarkSimTranslated itself pays (the
// nil-sink branches) and is held under 2% by publishing counters per
// Run, not per step.  The engine must match the baseline's —
// an earlier version ran the (faster) chained engine here and reported
// a nonsensical 0.749 "overhead" — so overhead = base/telemetry is
// >= ~1.0 by construction and benchmerge -check gates its ceiling.
func BenchmarkSimTelemetry(b *testing.B) {
	telemetry.Enable()
	telemetry.SetTracer(telemetry.NewTracer())
	defer func() {
		telemetry.SetTracer(nil)
		telemetry.Disable()
	}()
	benchmarkSim(b, sim.EngineTranslated)
}

// BenchmarkSimProfiled measures the per-pc profiling hooks eelprof
// uses: per-instruction hotness recording on top of the translation
// cache.  The CPU runs on the zero-value engine — the chained engine,
// held on its fully-instrumented path while a profile is attached — so
// the same-engine baseline is BenchmarkSimChained.  It runs only the
// medium flavour, as a named sub-benchmark so benchmerge pairs it with
// BenchmarkSimChained/medium when deriving profiling_overhead.
func BenchmarkSimProfiled(b *testing.B) {
	b.Run("medium", func(b *testing.B) {
		start := time.Now()
		var insts uint64
		for i := 0; i < b.N; i++ {
			cpu := sim.LoadFile(benchProgram.File, nil)
			prof := cpu.EnableProfile()
			if err := cpu.Run(2_000_000_000); err != nil {
				b.Fatal(err)
			}
			if prof.Branches == 0 {
				b.Fatal("profile recorded no branches")
			}
			insts += cpu.InstCount
		}
		sec := time.Since(start).Seconds()
		if sec > 0 {
			b.ReportMetric(float64(insts)/sec, "sim-insts/s")
		}
	})
}

// BenchmarkAssemble measures the two-pass assembler.
func BenchmarkAssemble(b *testing.B) {
	src := benchProgram.Source
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src, 0x10000); err != nil {
			b.Fatal(err)
		}
	}
}
