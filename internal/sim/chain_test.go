package sim

import (
	"fmt"
	"testing"

	"eel/internal/asm"
	"eel/internal/progen"
	"eel/internal/sparc"
	"eel/internal/telemetry"
)

// TestChainCollisionNoLivelock pins tcIndex collision behaviour: the
// direct-mapped cache indexes by (pc>>2) & (tcEntries-1), so blocks
// 0x4000*4 bytes apart map to the same slot.  Three mutually-calling
// hot chunks at 0x10000/0x14000/0x18000 all collide on slot 0; they
// must displace each other through the victim table (victim hits, not
// rebuilds), keep their chain links correct, and the program must
// terminate with the interpreter's exact result — no livelock, no
// cross-unchaining corruption.
func TestChainCollisionNoLivelock(t *testing.T) {
	main := `
	mov 200, %l0
	clr %o0
loop:
	set 0x14000, %l1
	jmpl %l1, %o7
	nop
	set 0x18000, %l1
	jmpl %l1, %o7
	nop
	subcc %l0, 1, %l0
	bne loop
	nop
	mov 1, %g1
	ta 0
`
	f1 := `
	jmpl %o7+8, %g0
	add %o0, 1, %o0
`
	f2 := `
	jmpl %o7+8, %g0
	add %o0, 2, %o0
`
	build := func(eng Engine) *CPU {
		cpu, prog := load(t, main, 0x10000)
		if tcIndex(0x10000) != tcIndex(0x14000) || tcIndex(0x10000) != tcIndex(0x18000) {
			t.Fatal("test addresses no longer collide in the direct-mapped cache")
		}
		for _, c := range []struct {
			src  string
			base uint32
		}{{f1, 0x14000}, {f2, 0x18000}} {
			p, err := asm.Assemble(c.src, c.base)
			if err != nil {
				t.Fatalf("assemble chunk at %#x: %v", c.base, err)
			}
			cpu.Mem.LoadSegment(p.Base, p.Bytes)
		}
		cpu.TextStart, cpu.TextEnd = prog.Base, 0x18000+0x100
		cpu.Engine = eng
		return cpu
	}

	ref := build(EngineInterp)
	run(t, ref)
	if ref.ExitCode != 600 {
		t.Fatalf("interpreter exit = %d, want 600", ref.ExitCode)
	}

	cpu := build(EngineChained)
	run(t, cpu) // run's step budget is the livelock guard
	if cpu.ExitCode != ref.ExitCode || cpu.InstCount != ref.InstCount {
		t.Fatalf("chained diverged: exit %d insts %d, want %d/%d",
			cpu.ExitCode, cpu.InstCount, ref.ExitCode, ref.InstCount)
	}
	k := cpu.Counters()
	if k.VictimHits == 0 {
		t.Errorf("colliding hot blocks never hit the victim table: %+v", k)
	}
	if k.Builds > 3*k.VictimHits+16 {
		t.Errorf("collisions are rebuilding instead of using the victim table: builds %d, victim hits %d",
			k.Builds, k.VictimHits)
	}
}

// TestChainedSelfModifyInvalidation is the self-modifying-code repro
// for chained-block invalidation: a hot loop — chained and possibly
// trace-extended by the time the write happens — patches its own body
// (add %o0,1 becomes add %o0,2) and runs another phase.  The store
// must flush the cache, sever every chain into the retired blocks, and
// the re-translation must execute the patched instruction; all three
// engines must agree bit-exactly.
func TestChainedSelfModifyInvalidation(t *testing.T) {
	src := `
	mov 2, %l5
	clr %o0
phase:
	mov 100, %l0
loop:
slot:
	add %o0, 1, %o0
	subcc %l0, 1, %l0
	bne loop
	nop
	set 0x20000, %l1
	ld [%l1], %l2
	set slot, %l3
	st %l2, [%l3]
	subcc %l5, 1, %l5
	bne phase
	nop
	mov 1, %g1
	ta 0
`
	patched, err := sparc.EncodeOp3Imm("add", sparc.RegO0, sparc.RegO0, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(eng Engine) *CPU {
		cpu, prog := load(t, src, 0x10000)
		cpu.Mem.Write32(0x20000, patched) // replacement word, outside text
		cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
		cpu.Engine = eng
		return cpu
	}

	ref := build(EngineInterp)
	run(t, ref)
	if ref.ExitCode != 300 { // 100*1 + 100*2
		t.Fatalf("interpreter exit = %d, want 300", ref.ExitCode)
	}
	for _, eng := range []Engine{EngineTranslated, EngineChained} {
		cpu := build(eng)
		run(t, cpu)
		if cpu.ExitCode != ref.ExitCode || cpu.InstCount != ref.InstCount {
			t.Errorf("%s: exit %d insts %d, want %d/%d",
				eng, cpu.ExitCode, cpu.InstCount, ref.ExitCode, ref.InstCount)
		}
		if addr, ok := ref.Mem.Diff(cpu.Mem); !ok {
			t.Errorf("%s: memory diverged at %#x", eng, addr)
		}
		if k := cpu.Counters(); k.Flushes == 0 {
			t.Errorf("%s: self-modifying store did not flush the cache: %+v", eng, k)
		}
	}
}

// TestTraceExtension checks profile-guided trace building on a
// loop-heavy progen workload: the chained engine must build at least
// one trace, serve most transitions from chain links, and still match
// the interpreter's architected state exactly.
func TestTraceExtension(t *testing.T) {
	cfg := progen.DefaultConfig(41)
	cfg.BodyOps = 8
	cfg.HotLoop = 500
	p := progen.MustGenerate(cfg)

	ref := LoadFile(p.File, nil)
	ref.Engine = EngineInterp
	if err := ref.Run(500_000_000); err != nil {
		t.Fatal(err)
	}

	cpu := LoadFile(p.File, nil)
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if a, b := ref.ArchState(), cpu.ArchState(); a != b {
		t.Fatalf("architected state diverged:\ninterp:  %schained: %s", a, b)
	}
	if addr, ok := ref.Mem.Diff(cpu.Mem); !ok {
		t.Fatalf("memory diverged at %#x", addr)
	}
	k := cpu.Counters()
	if k.Traces == 0 {
		t.Errorf("hot loop built no traces: %+v", k)
	}
	if k.ChainHits == 0 || k.ChainHits < k.ChainMisses {
		t.Errorf("chain links are not carrying the hot path: %+v", k)
	}
}

// TestTraceStepLimitParity stops the compiled engines at every step
// budget across one pass of the first trace a hot loop builds, so the
// limit falls inside hot code, not only in cold blocks.  Every engine
// must stop where the interpreter does: the same instruction count,
// fault pc and architected state.
func TestTraceStepLimitParity(t *testing.T) {
	cfg := progen.DefaultConfig(41)
	cfg.BodyOps = 8
	cfg.HotLoop = 500
	p := progen.MustGenerate(cfg)
	run := func(eng Engine, budget uint64) (*CPU, string) {
		cpu := LoadFile(p.File, nil)
		cpu.Engine, cpu.RoutineSync = eng, true
		err := cpu.Run(budget)
		return cpu, fmt.Sprintf("err=%v\n%s", err, cpu.ArchState())
	}

	// The smallest budget after which the chained engine holds a trace.
	hasTrace := func(budget uint64) bool {
		cpu, _ := run(EngineChained, budget)
		return cpu.Counters().Traces > 0
	}
	hi := uint64(1024)
	for !hasTrace(hi) {
		if hi *= 2; hi > 1<<24 {
			t.Fatal("the hot loop built no trace")
		}
	}
	lo := hi / 2 // lo builds none, hi does
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; hasTrace(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	cpu, _ := run(EngineChained, hi)
	var trace *tblock
	for _, b := range cpu.tc.blocks {
		if b.trace {
			trace = b
		}
	}
	inTrace := map[uint32]bool{}
	for _, ci := range trace.insts[1:] {
		inTrace[ci.pc] = true
	}

	ref := LoadFile(p.File, nil)
	ref.Engine = EngineInterp
	stopsInside := 0
	for budget := hi; budget <= hi+uint64(len(trace.insts)); budget++ {
		err := ref.Run(budget) // the interpreter resumes where it stopped
		want := fmt.Sprintf("err=%v\n%s", err, ref.ArchState())
		if inTrace[ref.PC] {
			stopsInside++
		}
		for _, eng := range []Engine{EngineChained, EngineTranslated, EngineRoutine} {
			if _, got := run(eng, budget); got != want {
				t.Fatalf("budget %d, %s:\n%s\ninterpreter:\n%s", budget, eng, got, want)
			}
		}
	}
	if stopsInside == 0 {
		t.Errorf("no budget stopped inside the %d-instruction trace at %#x", len(trace.insts), trace.pc)
	}
}

// TestChainCountersByEngine checks the engine plumbing: the
// translated engine must record no chaining activity at all, and the chained
// engine must serve indirect transfers from the inline caches.
func TestChainCountersByEngine(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(5))

	translated := LoadFile(p.File, nil)
	translated.Engine = EngineTranslated
	if err := translated.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	k := translated.Counters()
	if k.ChainHits+k.ChainMisses+k.ICHits+k.ICMisses+k.Traces != 0 {
		t.Errorf("translated engine recorded chaining activity: %+v", k)
	}

	chained := LoadFile(p.File, nil)
	if err := chained.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	k = chained.Counters()
	if k.ChainHits == 0 {
		t.Errorf("chained engine recorded no chain hits: %+v", k)
	}
	if k.ICHits == 0 {
		t.Errorf("chained engine recorded no inline-cache hits (progen emits dispatch tables): %+v", k)
	}
}

// BenchmarkRunTelemetrySink pins Run's telemetry publication to the
// BenchmarkDisabledSink contract: with process-wide telemetry
// disabled, the counter-delta/span path around a run must not
// allocate (a halted CPU isolates exactly that wrapper).
func BenchmarkRunTelemetrySink(b *testing.B) {
	p := progen.MustGenerate(progen.DefaultConfig(5))
	cpu := LoadFile(p.File, nil)
	if err := cpu.Run(500_000_000); err != nil {
		b.Fatal(err)
	}
	if !cpu.Halted {
		b.Fatal("program did not halt")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := cpu.Run(1); err != nil {
			b.Fatal(err)
		}
	}
	if testing.AllocsPerRun(100, func() {
		if err := cpu.Run(1); err != nil {
			b.Fatal(err)
		}
	}) != 0 {
		b.Fatal("disabled telemetry allocates in Run")
	}
	_ = telemetry.Default() // disabled: nil registry is the contract
}
